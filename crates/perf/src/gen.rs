//! Seeded workload generators.
//!
//! Everything a workload feeds the program is made here from
//! [`flux_core::rng::Rng`] and the `--seed` argument alone: which process
//! writes which key, which keys each process reads back, and the filler
//! bytes of every value. The program under test only ever sees the
//! resulting [`Op`] scripts (or, for `live_ping`, the ping payload).
//! The generators are modelled on `flux_kap::runner::script_for` but own
//! their key and value layout, so the benchmark does not move when KAP
//! does.

use flux_broker::RankOverlay;
use flux_core::rng::Rng;
use flux_kvs::KvsConfig;
use flux_rt::script::Op;
use flux_value::Value;
use flux_wire::Rank;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_260_926;

/// Tester processes per simulated node (the paper fully populates
/// 16-core nodes).
const PROCS_PER_NODE: u32 = 16;

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 8192-process collective fence, 8-byte values, one directory.
    Fence8k,
    /// 2048 independent commits of 4 KiB values on four shard masters.
    CommitSharded2k,
    /// One commit of 1024 keys, then 65 536 mostly-warm gets.
    ReadFanout1k,
    /// Loopback `cmb.ping` against one reactor broker.
    LivePing,
}

impl Workload {
    /// Every workload, in the order they run and report.
    pub const ALL: [Workload; 4] =
        [Workload::Fence8k, Workload::CommitSharded2k, Workload::ReadFanout1k, Workload::LivePing];

    /// The name used on the command line and in every output file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fence8k => "fence_8k",
            Workload::CommitSharded2k => "commit_sharded_2k",
            Workload::ReadFanout1k => "read_fanout_1k",
            Workload::LivePing => "live_ping",
        }
    }

    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fence8k => {
                "paper's full-scale KAP cell: collective fence, then cold reads of an \
                 8192-entry directory; message- and directory-bound, no wire or rt work"
            }
            Workload::CommitSharded2k => {
                "the other write path: independent commits of 4 KiB values batched on \
                 four shard masters; hash- and byte-bound"
            }
            Workload::ReadFanout1k => {
                "reads beside the write workloads: 65536 mostly-warm gets after one \
                 commit; broker dispatch and the sim engine floor dominate"
            }
            Workload::LivePing => {
                "the only workload that runs rt, wire framing and the value codec: loopback \
                 pings to one reactor broker, bypassing kvs, hash and sim"
            }
        }
    }

    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Full size for measuring, or the 64-process / 200-ping variants the
/// smoke test runs in a debug build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The sizes the workload names promise.
    Full,
    /// Same generators and code paths, seconds-fast.
    Smoke,
}

/// Where one process's phases end and what its gets must return.
#[derive(Clone, Debug, Default)]
pub struct ProcPlan {
    /// Index of the last producer-phase op (0, the set-up barrier, for a
    /// process that writes nothing).
    pub produce_end: usize,
    /// Index of the synchronisation op (fence or wait_version).
    pub sync_at: usize,
    /// `(op index, object index)` for every get in the script.
    pub gets: Vec<(usize, usize)>,
}

/// One generated simulator workload: the session shape, the scripts the
/// program runs, and what the benchmark expects back.
#[derive(Clone, Debug)]
pub struct DesPlan {
    /// Brokers in the session.
    pub nodes: u32,
    /// KVS tuning of every broker.
    pub kvs: KvsConfig,
    /// Topology of the rank-addressed overlay.
    pub overlay: RankOverlay,
    /// `(broker rank, ops)` per tester process, in process order.
    pub scripts: Vec<(Rank, Vec<Op>)>,
    /// Every object written, `(key, value)`, in object order.
    pub objects: Vec<(String, Value)>,
    /// Phase layout and expected reads, per process.
    pub procs: Vec<ProcPlan>,
}

impl DesPlan {
    /// Client ops in one rep, over all processes.
    pub fn total_ops(&self) -> u64 {
        self.scripts.iter().map(|(_, ops)| ops.len() as u64).sum()
    }

    /// The keys read, in script order — the read set the seed decides.
    pub fn read_keys(&self) -> impl Iterator<Item = &str> {
        self.procs.iter().flat_map(|p| p.gets.iter().map(|&(_, obj)| self.objects[obj].0.as_str()))
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// A permutation of `0..n` that never maps a process to the object it
/// wrote itself (`owner[p]`), so every read is of someone else's data.
fn foreign_reads(rng: &mut Rng, owner: &[usize]) -> Vec<usize> {
    let n = owner.len();
    let mut read = permutation(rng, n);
    for p in 0..n {
        if read[p] == owner[p] {
            read.swap(p, (p + 1) % n);
        }
    }
    read
}

/// `len` bytes of seeded lower-case filler.
fn filler(rng: &mut Rng, len: usize) -> String {
    let mut s = String::with_capacity(len + 8);
    while s.len() < len {
        for b in rng.next_u64().to_le_bytes() {
            s.push(char::from(b'a' + b % 26));
        }
    }
    s.truncate(len);
    s
}

/// A value of exactly `size` bytes: a hex tag that makes it unique,
/// then seeded filler.
fn tagged_value(rng: &mut Rng, tag: String, size: usize) -> Value {
    let fill = size - tag.len();
    Value::Str(tag + &filler(rng, fill))
}

fn setup_barrier(procs: usize) -> Op {
    Op::Barrier { name: "perf.setup".into(), nprocs: procs as u64 }
}

fn sync_fence(procs: usize) -> Op {
    Op::Fence { name: "perf.sync".into(), nprocs: procs as u64 }
}

fn get_of(objects: &[(String, Value)], obj: usize) -> Op {
    Op::Get { key: objects[obj].0.clone() }
}

/// Consecutive processes go to consecutive brokers, as KAP launches them.
fn rank_of(proc_id: usize, nodes: u32) -> Rank {
    Rank((proc_id % nodes as usize) as u32)
}

/// The shared shape of the two write workloads: every process puts one
/// object a seeded permutation assigns it, synchronises (its own commit
/// first when `commit` is set, then the collective fence), and reads one
/// object another process wrote.
fn write_workload(seed: u64, nodes: u32, value_size: usize, commit: bool) -> DesPlan {
    let n = (nodes * PROCS_PER_NODE) as usize;
    let mut rng = Rng::seeded(seed);
    let owner = permutation(&mut rng, n);
    let read = foreign_reads(&mut rng, &owner);
    // XOR with a seeded mask keeps the 8-hex-digit tags distinct while
    // making even the smallest values depend on the seed.
    let mask = rng.next_u64() as u32;
    let objects: Vec<(String, Value)> = (0..n)
        .map(|obj| {
            let tag = format!("{:08x}", obj as u32 ^ mask);
            (format!("kap.k{obj}"), tagged_value(&mut rng, tag, value_size))
        })
        .collect();
    let mut scripts = Vec::with_capacity(n);
    let mut procs = Vec::with_capacity(n);
    for p in 0..n {
        let (key, val) = objects[owner[p]].clone();
        let mut ops = vec![setup_barrier(n), Op::Put { key, val }];
        if commit {
            ops.push(Op::Commit);
        }
        let produce_end = ops.len() - 1;
        ops.push(sync_fence(n));
        ops.push(get_of(&objects, read[p]));
        procs.push(ProcPlan {
            produce_end,
            sync_at: produce_end + 1,
            gets: vec![(produce_end + 2, read[p])],
        });
        scripts.push((rank_of(p, nodes), ops));
    }
    DesPlan {
        nodes,
        kvs: KvsConfig::default(),
        overlay: RankOverlay::default(),
        scripts,
        objects,
        procs,
    }
}

/// `fence_8k`: 512 brokers × 16 processes, 8-byte values in one
/// directory, written through the collective fence and read back cold.
pub fn fence_8k(seed: u64, scale: Scale) -> DesPlan {
    let nodes = if scale == Scale::Full { 512 } else { 4 };
    write_workload(seed, nodes, 8, false)
}

/// `commit_sharded_2k`: 128 brokers × 16 processes, 4 KiB values, each
/// process commits on its own; four shard masters batch the pushes that
/// reach them rank-addressed over the full overlay.
pub fn commit_sharded_2k(seed: u64, scale: Scale) -> DesPlan {
    let nodes = if scale == Scale::Full { 128 } else { 4 };
    let mut plan = write_workload(seed, nodes, 4096, true);
    plan.kvs = KvsConfig { shards: 4, batch_window_ns: 50_000, ..KvsConfig::default() };
    plan.overlay = RankOverlay::Full;
    plan
}

/// `read_fanout_1k`: 64 brokers × 16 processes. Process 0 writes one key
/// per process into 128-entry directories (values drawn from a pool of 16
/// strings, so content addressing dedups them) and commits once; every
/// process waits for that version and reads 64 consecutive keys from a
/// seeded start.
pub fn read_fanout_1k(seed: u64, scale: Scale) -> DesPlan {
    let (nodes, gets_per_proc) = if scale == Scale::Full { (64, 64) } else { (4, 8) };
    let n = (nodes * PROCS_PER_NODE) as usize;
    let mut rng = Rng::seeded(seed);
    let pool: Vec<Value> =
        (0..16).map(|i| tagged_value(&mut rng, format!("{i:02x}:"), 512)).collect();
    let objects: Vec<(String, Value)> = (0..n)
        .map(|obj| {
            let val = pool[rng.gen_range(0..pool.len())].clone();
            (format!("kap.d{}.k{obj}", obj / 128), val)
        })
        .collect();
    let put_order = permutation(&mut rng, n);
    let mut scripts = Vec::with_capacity(n);
    let mut procs = Vec::with_capacity(n);
    for p in 0..n {
        let mut ops = vec![setup_barrier(n)];
        if p == 0 {
            for &obj in &put_order {
                let (key, val) = objects[obj].clone();
                ops.push(Op::Put { key, val });
            }
            ops.push(Op::Commit);
        }
        let produce_end = ops.len() - 1;
        ops.push(Op::WaitVersion(1));
        let start = rng.gen_range(0..n);
        let mut gets = Vec::with_capacity(gets_per_proc);
        for i in 0..gets_per_proc {
            let obj = (start + i) % n;
            gets.push((ops.len(), obj));
            ops.push(get_of(&objects, obj));
        }
        procs.push(ProcPlan { produce_end, sync_at: produce_end + 1, gets });
        scripts.push((rank_of(p, nodes), ops));
    }
    DesPlan {
        nodes,
        kvs: KvsConfig::default(),
        overlay: RankOverlay::default(),
        scripts,
        objects,
        procs,
    }
}

/// The generated simulator workload for `w`.
///
/// # Panics
/// Panics on [`Workload::LivePing`], which has no script plan.
pub fn des_plan(w: Workload, seed: u64, scale: Scale) -> DesPlan {
    match w {
        Workload::Fence8k => fence_8k(seed, scale),
        Workload::CommitSharded2k => commit_sharded_2k(seed, scale),
        Workload::ReadFanout1k => read_fanout_1k(seed, scale),
        Workload::LivePing => panic!("live_ping is not a simulator workload"),
    }
}

/// The `live_ping` payload: one seeded 64-byte pad, echoed by the broker.
pub fn ping_payload(seed: u64) -> Value {
    let mut rng = Rng::seeded(seed);
    Value::from_pairs([("pad", Value::Str(filler(&mut rng, 64)))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_broker::client::ClientCore;

    /// The exact request bytes the program would be sent, script by script.
    fn script_bytes(plan: &DesPlan) -> Vec<u8> {
        let mut out = Vec::new();
        for (rank, ops) in &plan.scripts {
            let mut core = ClientCore::new(*rank, 0);
            for (i, op) in ops.iter().enumerate() {
                out.extend(op.to_request(&mut core, i as u64).encode());
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_scripts() {
        for w in [Workload::Fence8k, Workload::CommitSharded2k, Workload::ReadFanout1k] {
            let a = des_plan(w, 7, Scale::Smoke);
            let b = des_plan(w, 7, Scale::Smoke);
            assert_eq!(script_bytes(&a), script_bytes(&b), "{}", w.name());
        }
        assert_eq!(ping_payload(7), ping_payload(7));
    }

    #[test]
    fn another_seed_gives_another_read_set() {
        for w in [Workload::Fence8k, Workload::CommitSharded2k, Workload::ReadFanout1k] {
            let a = des_plan(w, 7, Scale::Smoke);
            let b = des_plan(w, 8, Scale::Smoke);
            assert!(a.read_keys().ne(b.read_keys()), "{}", w.name());
        }
        assert_ne!(ping_payload(7), ping_payload(8));
    }

    #[test]
    fn write_workloads_never_read_their_own_object() {
        for seed in 0..32 {
            let plan = fence_8k(seed, Scale::Smoke);
            for (p, (_, ops)) in plan.scripts.iter().enumerate() {
                let Op::Put { key: written, .. } = &ops[1] else { panic!("op 1 is the put") };
                let (_, obj) = plan.procs[p].gets[0];
                assert_ne!(&plan.objects[obj].0, written, "seed {seed} process {p}");
            }
        }
    }

    #[test]
    fn values_have_the_promised_sizes_and_are_unique() {
        let fence = fence_8k(1, Scale::Smoke);
        let commit = commit_sharded_2k(1, Scale::Smoke);
        for (plan, size) in [(&fence, 8), (&commit, 4096)] {
            let mut seen = std::collections::HashSet::new();
            for (_, v) in &plan.objects {
                let s = v.as_str().unwrap();
                assert_eq!(s.len(), size);
                assert!(seen.insert(s), "duplicate value");
            }
        }
        let fanout = read_fanout_1k(1, Scale::Smoke);
        let distinct: std::collections::HashSet<_> =
            fanout.objects.iter().map(|(_, v)| v.as_str().unwrap()).collect();
        assert!(distinct.len() <= 16 && distinct.len() > 1);
        assert!(distinct.iter().all(|s| s.len() == 512));
    }
}
