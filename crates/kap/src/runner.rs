//! Running KAP on any comms runtime.
//!
//! The workload is defined once as per-process [`Op`] scripts and runs
//! against the [`ScriptTransport`] abstraction: [`run_kap`] uses the
//! simulator (virtual time, the paper's cost model), while
//! [`run_kap_full`] accepts any transport — e.g. the live loopback-TCP
//! runtime — and measures wall-clock phases instead.

use crate::layout::{key_for, value_for, DirLayout};
use flux_broker::CommsModule;
use flux_kvs::{KvsConfig, KvsModule};
use flux_modules::BarrierModule;
use flux_rt::script::Op;
use flux_rt::transport::{ScriptReport, ScriptTransport, SimTransport};
use flux_wire::Rank;

/// The role a tester process plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// Writes objects only.
    Producer,
    /// Reads objects only.
    Consumer,
    /// Both (the paper's fully-populated configuration).
    Both,
    /// Joins the setup barrier and the fence but moves no data.
    Idle,
}

/// How producers make their writes durable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProducerMode {
    /// Writes ride the collective fence (the paper's KAP shape): puts
    /// stage locally and travel as merged fence contributions.
    Fence,
    /// Each producer issues an explicit `kvs.commit` after its puts:
    /// independent commits travel as concurrent `kvs.push` requests —
    /// the master-side batching hot path.
    Commit,
}

/// How consumers learn the producers' writes are visible.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncMode {
    /// Everyone enters `kvs.fence` (collective commit + barrier in one).
    Fence,
    /// Consumers `kvs.wait_version` for the producer's commit (causal
    /// consistency, no collective). Requires [`ProducerMode::Commit`]
    /// and a single producer, so the target version is exact even when
    /// the master coalesces pushes.
    WaitVersion,
}

/// One KAP configuration (paper §V-A parameter space).
#[derive(Clone, Debug)]
pub struct KapParams {
    /// Compute nodes in the session (paper: 64–512).
    pub nodes: u32,
    /// Tester processes per node (paper: 16, fully populating each node).
    pub procs_per_node: u32,
    /// Number of producers (first `producers` global process ids).
    pub producers: u64,
    /// Number of consumers (first `consumers` global process ids).
    pub consumers: u64,
    /// Bytes per value (paper: 8 … 32768).
    pub value_size: usize,
    /// `kvs_put`s per producer.
    pub nputs: u64,
    /// `kvs_get`s per consumer ("the key-value object access count of
    /// each consumer", 1 … total process count).
    pub naccess: u64,
    /// Consumer start stride through the object space.
    pub stride: u64,
    /// All values identical across producers (Fig. 3's redundant case).
    pub redundant: bool,
    /// Key layout (Fig. 4a single directory vs Fig. 4b split).
    pub layout: DirLayout,
    /// Tree plane fan-out (paper evaluates a binary tree).
    pub arity: u32,
    /// How producers persist their writes.
    pub producer_mode: ProducerMode,
    /// How consumers synchronize with the producers.
    pub sync_mode: SyncMode,
    /// KVS tuning for every broker in the session (batching, fence
    /// window, shards) — the knob the optimization margin cell flips
    /// between baseline and optimized.
    pub kvs: KvsConfig,
}

impl KapParams {
    /// The paper's fully-populated configuration at `nodes` nodes: 16
    /// processes per node, every process both producer and consumer, one
    /// put each, one get each, 8-byte values, single directory.
    pub fn fully_populated(nodes: u32) -> KapParams {
        KapParams::populated(nodes, 16)
    }

    /// The fully-populated configuration with `procs_per_node` testers
    /// on every node (the reduced scales use 4).
    pub fn populated(nodes: u32, procs_per_node: u32) -> KapParams {
        let procs = u64::from(nodes) * u64::from(procs_per_node);
        KapParams {
            nodes,
            procs_per_node,
            producers: procs,
            consumers: procs,
            value_size: 8,
            nputs: 1,
            naccess: 1,
            stride: 1,
            redundant: false,
            layout: DirLayout::Single,
            arity: 2,
            producer_mode: ProducerMode::Fence,
            sync_mode: SyncMode::Fence,
            kvs: KvsConfig::default(),
        }
    }

    /// Total tester processes.
    pub fn total_procs(&self) -> u64 {
        u64::from(self.nodes) * u64::from(self.procs_per_node)
    }

    /// Total objects written.
    pub fn total_objects(&self) -> u64 {
        self.producers * self.nputs
    }

    /// The role of global process `gid`.
    fn role_of(&self, gid: u64) -> Role {
        let p = gid < self.producers;
        let c = gid < self.consumers;
        match (p, c) {
            (true, true) => Role::Both,
            (true, false) => Role::Producer,
            (false, true) => Role::Consumer,
            (false, false) => Role::Idle,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on inconsistent parameters.
    fn validate(&self) {
        assert!(self.nodes > 0 && self.procs_per_node > 0, "empty session");
        let procs = self.total_procs();
        assert!(self.producers <= procs, "more producers than processes");
        assert!(self.consumers <= procs, "more consumers than processes");
        assert!(self.producers > 0, "need at least one producer");
        assert!(self.value_size >= 8, "values are at least 8 bytes (gid prefix)");
        assert!(self.nputs > 0, "producers must put");
        assert!(
            self.kvs.shards.max(1) <= self.nodes,
            "shard masters live on ranks 0..shards: {} shards need at least \
             {} nodes, session has {}",
            self.kvs.shards,
            self.kvs.shards,
            self.nodes
        );
        if self.sync_mode == SyncMode::WaitVersion {
            assert_eq!(
                self.kvs.shards.max(1),
                1,
                "wait_version sync needs a single shard: the target version \
                 is a shard-0 stream position, which says nothing about the \
                 other shards' commit visibility"
            );
            assert_eq!(
                self.producer_mode,
                ProducerMode::Commit,
                "wait_version sync needs explicit commits"
            );
            assert_eq!(
                self.producers, 1,
                "wait_version sync needs a single producer: with more, the \
                 master may coalesce pushes and the target version is not \
                 knowable in advance"
            );
        }
    }
}

/// Maximum per-phase latencies across all processes — the paper's metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KapResult {
    /// Max producer-phase latency (barrier exit → last put ack), ns.
    pub producer_ns: u64,
    /// Max synchronization-phase latency (last put ack → fence done), ns.
    pub sync_ns: u64,
    /// Max consumer-phase latency (fence done → last get done), ns.
    pub consumer_ns: u64,
    /// Virtual time when the whole run finished.
    pub makespan_ns: u64,
    /// Engine events processed (cost/diagnostics).
    pub events: u64,
    /// Bytes moved over all links.
    pub bytes: u64,
}

/// Where one process's phase boundaries sit in its op list.
#[derive(Clone, Copy, Debug)]
struct OpLayout {
    /// Index of the last producer-phase op (0 = no producer ops; the
    /// setup barrier sits at index 0).
    produce_end: usize,
    /// Index of the synchronization op, if this process has one.
    sync_at: Option<usize>,
}

/// The ops for one tester process, plus its phase layout.
fn script_for(p: &KapParams, gid: u64) -> (Vec<Op>, OpLayout) {
    let procs = p.total_procs();
    let mut ops = vec![Op::Barrier { name: "kap.setup".into(), nprocs: procs }];
    let role = p.role_of(gid);
    if matches!(role, Role::Producer | Role::Both) {
        for i in 0..p.nputs {
            let obj = gid * p.nputs + i;
            ops.push(Op::Put {
                key: key_for(p.layout, obj),
                val: value_for(obj, p.value_size, p.redundant),
            });
        }
        if p.producer_mode == ProducerMode::Commit {
            ops.push(Op::Commit);
        }
    }
    let produce_end = ops.len() - 1;
    let sync_at = match p.sync_mode {
        // Everyone participates in the collective (paper: "all of the
        // producers and consumers enter the synchronization phase").
        SyncMode::Fence => {
            ops.push(Op::Fence { name: "kap.sync".into(), nprocs: procs });
            Some(ops.len() - 1)
        }
        // Only readers wait; the producer's own commit ack is its sync
        // point (read-your-writes).
        SyncMode::WaitVersion if matches!(role, Role::Consumer | Role::Both) => {
            // One commit per producer; `validate` pins producers == 1 so
            // this target is exact even under master-side batching.
            ops.push(Op::WaitVersion(p.producers));
            Some(ops.len() - 1)
        }
        SyncMode::WaitVersion => None,
    };
    if matches!(role, Role::Consumer | Role::Both) {
        let total = p.total_objects();
        let start = gid.wrapping_mul(p.stride) % total;
        for i in 0..p.naccess.min(total) {
            let obj = (start + i) % total;
            ops.push(Op::Get { key: key_for(p.layout, obj) });
        }
    }
    (ops, OpLayout { produce_end, sync_at })
}

/// One process's observed phase latencies (ns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcPhases {
    /// Producer phase: setup-barrier exit → last put/commit ack. Zero
    /// for pure consumers.
    pub producer_ns: u64,
    /// Synchronization phase: producer end → fence/wait_version done.
    /// Zero for processes with no sync op (producers in wait_version
    /// mode — their commit ack is the sync point).
    pub sync_ns: u64,
    /// Consumer phase: sync done → last get done. Zero for pure
    /// producers.
    pub consumer_ns: u64,
}

/// A full KAP run: per-process phase latencies plus transport totals —
/// the input the bench harness aggregates into percentiles.
#[derive(Clone, Debug)]
pub struct KapRun {
    /// Per-process phases, indexed by global process id.
    pub phases: Vec<ProcPhases>,
    /// Virtual (sim) or wall-clock (live) time for the whole run, ns.
    pub makespan_ns: u64,
    /// Engine events processed (sim only; 0 on live transports).
    pub events: u64,
    /// Bytes moved over all links (sim only; 0 on live transports).
    pub bytes: u64,
    /// Host wall-clock the engine spent dispatching, ns (sim only).
    pub wall_ns: u64,
    /// Engine self-reported dispatch rate, events per wall second (sim
    /// only). Diagnostic for "does paper scale run in seconds" checks;
    /// never folded into the deterministic bench records.
    pub events_per_sec: f64,
}

/// The module set every KAP broker loads.
pub(crate) fn modules(kvs: KvsConfig) -> Vec<Box<dyn CommsModule>> {
    vec![Box::new(KvsModule::with_config(kvs)), Box::new(BarrierModule::new())]
}

/// A measured run is a completed one: every process finished its script
/// and every op of it succeeded.
pub(crate) fn assert_completed(report: &ScriptReport) {
    for (gid, out) in report.outcomes.iter().enumerate() {
        assert!(out.finished, "process {gid} did not finish its script");
        assert!(
            out.op_err.iter().all(|&e| e == 0),
            "process {gid} had op errors: {:?}",
            out.op_err
        );
    }
}

/// Runs one KAP configuration to completion on the simulator (the
/// paper's measurement setup: virtual time, the default
/// [`flux_sim::NetParams`] cost model).
pub fn run_kap(params: &KapParams) -> KapResult {
    run_kap_on(params, &SimTransport::default())
}

/// Runs one KAP configuration on any script-capable transport and
/// reduces to the paper's metric: maximum phase latency across
/// processes.
fn run_kap_on(params: &KapParams, transport: &dyn ScriptTransport) -> KapResult {
    let run = run_kap_full(params, transport);
    let mut producer_ns = 0u64;
    let mut sync_ns = 0u64;
    let mut consumer_ns = 0u64;
    for p in &run.phases {
        producer_ns = producer_ns.max(p.producer_ns);
        sync_ns = sync_ns.max(p.sync_ns);
        consumer_ns = consumer_ns.max(p.consumer_ns);
    }
    KapResult {
        producer_ns,
        sync_ns,
        consumer_ns,
        makespan_ns: run.makespan_ns,
        events: run.events,
        bytes: run.bytes,
    }
}

/// Runs one KAP configuration on any script-capable transport — the
/// simulator or loopback TCP — and reports every process's
/// phase latencies. Live transports report wall-clock latencies and zero
/// engine events/bytes.
pub fn run_kap_full(params: &KapParams, transport: &dyn ScriptTransport) -> KapRun {
    params.validate();

    // Launch testers: consecutive global ranks on consecutive nodes
    // ("consecutive rank processes are distributed to consecutive
    // nodes"), i.e. round-robin placement.
    let procs = params.total_procs();
    let mut layouts = Vec::with_capacity(procs as usize);
    let scripts: Vec<(Rank, Vec<Op>)> = (0..procs)
        .map(|gid| {
            let node = Rank((gid % u64::from(params.nodes)) as u32);
            let (ops, layout) = script_for(params, gid);
            layouts.push(layout);
            (node, ops)
        })
        .collect();

    let kvs = params.kvs;
    let report =
        transport.run_scripts(params.nodes, params.arity, &move |_| modules(kvs), scripts);

    assert_completed(&report);
    let mut phases = Vec::with_capacity(procs as usize);
    for (gid, out) in report.outcomes.iter().enumerate() {
        let layout = layouts[gid];
        let barrier_done = out.op_done_ns[0];
        let produce_end = out.op_done_ns[layout.produce_end];
        let sync_done = layout.sync_at.map(|i| out.op_done_ns[i]).unwrap_or(produce_end);
        let consumer_end = *out.op_done_ns.last().expect("nonempty");
        let has_gets = out.op_done_ns.len() - 1 > layout.sync_at.unwrap_or(layout.produce_end);
        phases.push(ProcPhases {
            producer_ns: produce_end - barrier_done,
            sync_ns: sync_done - produce_end,
            consumer_ns: if has_gets { consumer_end - sync_done } else { 0 },
        });
    }

    KapRun {
        phases,
        makespan_ns: report.makespan_ns,
        events: report.events,
        bytes: report.bytes,
        wall_ns: report.wall_ns,
        events_per_sec: report.events_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(nodes: u32) -> KapParams {
        KapParams::populated(nodes, 4)
    }

    #[test]
    fn roles_partition_processes() {
        let mut p = KapParams::fully_populated(4);
        p.producers = 16;
        p.consumers = 64;
        assert_eq!(p.role_of(0), Role::Both);
        assert_eq!(p.role_of(15), Role::Both);
        assert_eq!(p.role_of(16), Role::Consumer);
        assert_eq!(p.role_of(63), Role::Consumer);
        p.producers = 64;
        p.consumers = 16;
        assert_eq!(p.role_of(40), Role::Producer);
    }

    #[test]
    fn script_shape_matches_phases() {
        let p = quick(2);
        let (ops, layout) = script_for(&p, 0);
        assert!(matches!(ops[0], Op::Barrier { .. }));
        assert!(matches!(ops[1], Op::Put { .. }));
        assert!(matches!(ops[2], Op::Fence { .. }));
        assert!(matches!(ops[3], Op::Get { .. }));
        assert_eq!(ops.len(), 4);
        assert_eq!(layout.produce_end, 1);
        assert_eq!(layout.sync_at, Some(2));
    }

    #[test]
    fn commit_mode_appends_a_commit_per_producer() {
        let mut p = quick(2);
        p.producer_mode = ProducerMode::Commit;
        let (ops, layout) = script_for(&p, 0);
        assert!(matches!(ops[1], Op::Put { .. }));
        assert!(matches!(ops[2], Op::Commit));
        assert!(matches!(ops[3], Op::Fence { .. }));
        assert_eq!(layout.produce_end, 2);
        assert_eq!(layout.sync_at, Some(3));
    }

    #[test]
    fn wait_version_sync_replaces_the_fence_for_consumers() {
        let mut p = quick(2);
        p.producer_mode = ProducerMode::Commit;
        p.sync_mode = SyncMode::WaitVersion;
        p.producers = 1;
        // gid 0 is Both: put, commit, wait, get.
        let (ops, layout) = script_for(&p, 0);
        assert!(matches!(ops[2], Op::Commit));
        assert!(matches!(ops[3], Op::WaitVersion(1)));
        assert_eq!(layout.sync_at, Some(3));
        // gid 1 is a pure consumer: barrier, wait, get.
        let (ops, layout) = script_for(&p, 1);
        assert!(matches!(ops[1], Op::WaitVersion(1)));
        assert!(matches!(ops[2], Op::Get { .. }));
        assert_eq!(layout.sync_at, Some(1));
    }

    #[test]
    fn wait_version_run_completes_and_reads_latest() {
        let mut p = quick(4);
        p.producer_mode = ProducerMode::Commit;
        p.sync_mode = SyncMode::WaitVersion;
        p.producers = 1;
        p.nputs = 4;
        p.naccess = 2;
        let run = run_kap_full(&p, &SimTransport::default());
        assert_eq!(run.phases.len(), p.total_procs() as usize);
        // Consumers waited and read: their sync + consumer phases cost time.
        let consumer = run.phases[(p.total_procs() - 1) as usize];
        assert!(consumer.sync_ns > 0, "wait_version costs time");
        assert!(consumer.consumer_ns > 0, "gets cost time");
    }

    #[test]
    #[should_panic(expected = "single producer")]
    fn wait_version_rejects_multiple_producers() {
        let mut p = quick(2);
        p.producer_mode = ProducerMode::Commit;
        p.sync_mode = SyncMode::WaitVersion;
        run_kap(&p);
    }

    #[test]
    fn small_run_completes_with_ordered_phases() {
        let r = run_kap(&quick(4));
        assert!(r.makespan_ns > 0);
        assert!(r.sync_ns > 0, "fence costs time");
        assert!(r.consumer_ns > 0, "gets cost time");
        assert!(r.events > 0 && r.bytes > 0);
    }

    #[test]
    fn consumer_only_and_producer_only_roles_work() {
        let mut p = quick(2);
        p.producers = 3;
        p.consumers = p.total_procs();
        let r = run_kap(&p);
        assert!(r.consumer_ns > 0);
        let mut p = quick(2);
        p.consumers = 3;
        p.producers = p.total_procs();
        let r = run_kap(&p);
        assert!(r.producer_ns > 0);
    }

    #[test]
    fn redundant_values_speed_up_sync() {
        let mut unique = quick(8);
        unique.value_size = 4096;
        let mut redundant = unique.clone();
        redundant.redundant = true;
        let u = run_kap(&unique);
        let r = run_kap(&redundant);
        assert!(
            r.sync_ns < u.sync_ns,
            "redundant {} >= unique {}",
            r.sync_ns,
            u.sync_ns
        );
        // And strictly less data on the wire.
        assert!(r.bytes < u.bytes);
    }

    #[test]
    fn split_layout_speeds_up_consumers() {
        // The directory effect needs a well-populated directory: 32
        // producers x 32 puts = 1024 objects (8 KiB of directory entries
        // in the single layout vs 128-entry directories in the split).
        let mut single = quick(8);
        single.nputs = 32;
        single.naccess = 4;
        let mut split = single.clone();
        split.layout = DirLayout::Split128;
        let a = run_kap(&single);
        let b = run_kap(&split);
        assert!(
            b.consumer_ns < a.consumer_ns,
            "split {} >= single {}",
            b.consumer_ns,
            a.consumer_ns
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let p = quick(4);
        assert_eq!(run_kap(&p), run_kap(&p));
    }

    #[test]
    fn same_workload_runs_on_live_transports() {
        use flux_rt::transport::LiveTransport;
        let mut p = KapParams::fully_populated(2);
        p.procs_per_node = 2;
        p.producers = p.total_procs();
        p.consumers = p.total_procs();
        let transport = LiveTransport::default();
        let r = run_kap_on(&p, &transport);
        assert!(r.makespan_ns > 0, "tcp ran");
        assert_eq!(r.events, 0, "live transports have no engine stats");
    }

    #[test]
    #[should_panic(expected = "more producers")]
    fn validation_rejects_oversubscription() {
        let mut p = quick(2);
        p.producers = 1_000_000;
        run_kap(&p);
    }

    #[test]
    #[should_panic(expected = "shard masters live on ranks")]
    fn validation_rejects_more_shards_than_nodes() {
        let mut p = quick(2);
        p.kvs.shards = 3;
        run_kap(&p);
    }

    #[test]
    #[should_panic(expected = "single shard")]
    fn wait_version_rejects_sharding() {
        let mut p = quick(4);
        p.producer_mode = ProducerMode::Commit;
        p.sync_mode = SyncMode::WaitVersion;
        p.producers = 1;
        p.kvs.shards = 2;
        run_kap(&p);
    }

    #[test]
    fn sharded_commit_run_completes_deterministically() {
        let mut p = quick(4);
        p.producer_mode = ProducerMode::Commit;
        p.kvs.shards = 4;
        p.nputs = 2;
        p.naccess = 2;
        let a = run_kap(&p);
        assert!(a.makespan_ns > 0 && a.events > 0);
        assert_eq!(a, run_kap(&p), "sharded sim run must be reproducible");
    }
}
