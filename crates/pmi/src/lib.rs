//! # flux-pmi
//!
//! A PMI-style process-management interface over the Flux KVS.
//!
//! The paper (§IV-A): *"a custom PMI library allows MPI run-times to
//! access the Flux KVS and collective barrier modules over this
//! transport"* — and §V motivates the KAP benchmark with exactly this
//! pattern: *"distributed HPC software would use KVS operations in a
//! coordinated fashion to exchange connection information among processes
//! during its bootstrapping phase as shown in LIBI and PMI."*
//!
//! [`Pmi`] exposes the classic PMI-1 surface (`put`, `commit`/`fence`,
//! `barrier`, `get`) with keys namespaced per job under
//! `pmi.<jobid>.<rank>.<key>`. Like the rest of flux-rs it is sans-io:
//! builders return [`flux_wire::Message`]s for the runtime to transmit
//! and [`Pmi::deliver`] decodes what comes back as the KVS client's
//! [`KvsDelivery`]: PMI adds key names, not a protocol.
//!
//! [`bootstrap_ops`] emits the canonical MPI wire-up exchange as a
//! `flux_kvs` client script (`Vec<Op>`, which `flux_rt::script` runs on
//! either runtime): put your business card, fence with all ranks, read
//! your peers' cards.

use flux_broker::ClientId;
use flux_kvs::client::{KvsClient, KvsDelivery, Op};
use flux_value::Value;
use flux_wire::{Message, Rank};

/// A PMI connection for one application process.
pub struct Pmi {
    kvs: KvsClient,
    jobid: String,
    /// This process's global rank within the application.
    pub grank: u64,
    /// Application size in processes.
    pub size: u64,
}

impl Pmi {
    /// Creates a PMI connection for process `grank` of `size` in job
    /// `jobid`, attached to the broker at `broker_rank` as local client
    /// `client_id`.
    pub fn new(
        jobid: impl Into<String>,
        grank: u64,
        size: u64,
        broker_rank: Rank,
        client_id: ClientId,
    ) -> Pmi {
        assert!(size > 0 && grank < size, "rank {grank} outside 0..{size}");
        Pmi { kvs: KvsClient::new(broker_rank, client_id), jobid: jobid.into(), grank, size }
    }

    fn key_of(&self, grank: u64, key: &str) -> String {
        format!("pmi.{}.{grank}.{key}", self.jobid)
    }

    /// `PMI_KVS_Put(key, val)` — under this process's namespace.
    pub fn put(&mut self, key: &str, val: Value, tag: u64) -> Message {
        let k = self.key_of(self.grank, key);
        self.kvs.put(&k, val, tag)
    }

    /// `PMI_KVS_Commit + PMI_Barrier` — the Flux KVS fuses both into
    /// `kvs_fence` across all `size` processes.
    pub fn fence(&mut self, tag: u64) -> Message {
        let name = format!("pmi.{}", self.jobid);
        self.kvs.fence(&name, self.size, tag)
    }

    /// `PMI_KVS_Get` of `key` from process `grank`'s namespace.
    pub fn get(&mut self, grank: u64, key: &str, tag: u64) -> Message {
        let k = self.key_of(grank, key);
        self.kvs.get(&k, tag)
    }

    /// Classifies an incoming message. PMI has no replies of its own: a
    /// put is answered `KvsReply::Ack`, a fence `KvsReply::Frontier`
    /// (whatever the shard count) and a get `KvsReply::Value`.
    pub fn deliver(&mut self, msg: Message) -> KvsDelivery {
        self.kvs.deliver(msg)
    }
}

/// The canonical bootstrap exchange as a client script: publish this
/// process's business card, fence with everyone, then read `fanout`
/// peers' cards (ring neighbours — each process contacts the next few
/// ranks, the usual wire-up pattern).
pub fn bootstrap_ops(jobid: &str, grank: u64, size: u64, fanout: u64) -> Vec<Op> {
    let mut ops = vec![Op::Put {
        key: format!("pmi.{jobid}.{grank}.card"),
        val: Value::from(format!("endpoint://node/{grank}")),
    }];
    ops.push(Op::Fence { name: format!("pmi.{jobid}"), nprocs: size });
    for i in 1..=fanout.min(size.saturating_sub(1)) {
        let peer = (grank + i) % size;
        ops.push(Op::Get { key: format!("pmi.{jobid}.{peer}.card") });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_broker::testing::TestNet;
    use flux_kvs::client::KvsReply;
    use flux_kvs::msg::{self, RootRef};
    use flux_kvs::{KvsConfig, KvsModule};

    #[test]
    fn keys_are_namespaced_per_rank_and_job() {
        let mut p = Pmi::new("job7", 3, 8, Rank(1), 0);
        let put = p.put("card", Value::from("x"), 1);
        assert_eq!(put.payload.get("k"), Some(&Value::from("pmi.job7.3.card")));
        let get = p.get(5, "card", 2);
        assert_eq!(get.payload.get("k"), Some(&Value::from("pmi.job7.5.card")));
    }

    #[test]
    fn fence_covers_all_processes() {
        let mut p = Pmi::new("j", 0, 64, Rank(0), 0);
        let f = p.fence(1);
        assert_eq!(f.payload.get("name"), Some(&Value::from("pmi.j")));
        assert_eq!(f.payload.get("nprocs"), Some(&Value::Int(64)));
    }

    #[test]
    fn deliver_decodes_lifecycle() {
        let mut p = Pmi::new("j", 0, 2, Rank(0), 0);
        let reply = |tag, reply| KvsDelivery::Reply { tag, reply };
        let put = p.put("card", Value::from("c"), 1);
        let ack = Message::response_to(&put, Value::object());
        assert_eq!(p.deliver(ack), reply(1, KvsReply::Ack));
        let fence = p.fence(2);
        let at = RootRef { shard: 0, version: 1, root: "ab".into() };
        let done = Message::response_to(&fence, msg::cut_reply(1, std::slice::from_ref(&at)));
        let frontier = KvsReply::Frontier { shards: 1, frontier: vec![at] };
        assert_eq!(p.deliver(done), reply(2, frontier));
        let get = p.get(1, "card", 3);
        let val = Message::response_to(&get, Value::from_pairs([("v", Value::from("peer"))]));
        assert_eq!(p.deliver(val), reply(3, KvsReply::Value(Value::from("peer"))));
    }

    /// Sends one request per process (process `g` on broker `g + 2`),
    /// runs timers until each is answered, and returns each delivery.
    fn round(
        net: &mut TestNet,
        procs: &mut [Pmi],
        ask: impl Fn(&mut Pmi) -> Message,
    ) -> Vec<KvsDelivery> {
        let at = |p: &Pmi| Rank(p.grank as u32 + 2);
        for p in procs.iter_mut() {
            let req = ask(p);
            net.client_send(at(p), 0, req);
        }
        let mut replies = vec![Vec::new(); procs.len()];
        loop {
            for (p, r) in procs.iter().zip(&mut replies) {
                r.extend(net.take_client_msgs(at(p), 0));
            }
            if replies.iter().all(|r| !r.is_empty()) || !net.fire_next_timer() {
                break;
            }
        }
        let answered = procs.iter_mut().zip(replies).map(|(p, mut r)| {
            assert_eq!(r.len(), 1, "one reply each");
            p.deliver(r.remove(0))
        });
        answered.collect()
    }

    /// Two processes on a 2-shard KVS: the fence answers a frontier, and
    /// that is a success, not a refusal.
    #[test]
    fn put_fence_get_on_a_sharded_kvs() {
        let cfg = KvsConfig { shards: 2, ..KvsConfig::default() };
        let mut net = TestNet::new(4, 2, |_| vec![Box::new(KvsModule::with_config(cfg))]);
        let mut procs: Vec<Pmi> =
            (0..2).map(|g| Pmi::new("sh", g, 2, Rank(g as u32 + 2), 0)).collect();
        for d in round(&mut net, &mut procs, |p| p.put("card", Value::from(p.grank as i64), 1)) {
            assert_eq!(d, KvsDelivery::Reply { tag: 1, reply: KvsReply::Ack });
        }
        for d in round(&mut net, &mut procs, |p| p.fence(2)) {
            let frontier = matches!(
                d,
                KvsDelivery::Reply { tag: 2, reply: KvsReply::Frontier { shards: 2, .. } }
            );
            assert!(frontier, "{d:?}");
        }
        let got = round(&mut net, &mut procs, |p| p.get(1 - p.grank, "card", 3));
        for (g, d) in got.into_iter().enumerate() {
            let peer = Value::from(1 - g as i64);
            assert_eq!(d, KvsDelivery::Reply { tag: 3, reply: KvsReply::Value(peer) });
        }
    }

    #[test]
    fn bootstrap_ops_shape() {
        let ops = bootstrap_ops("mpi1", 2, 8, 3);
        assert_eq!(ops.len(), 1 + 1 + 3);
        assert!(matches!(&ops[0], Op::Put { key, .. } if key == "pmi.mpi1.2.card"));
        assert!(matches!(&ops[1], Op::Fence { nprocs: 8, .. }));
        assert!(matches!(&ops[2], Op::Get { key } if key == "pmi.mpi1.3.card"));
        // Fanout clamps for tiny jobs.
        let tiny = bootstrap_ops("t", 0, 1, 5);
        assert_eq!(tiny.len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_rank_rejected() {
        let _ = Pmi::new("j", 8, 8, Rank(0), 0);
    }
}
