//! The `resvc` module: resource enumeration and allocation.
//!
//! At session start every broker enumerates its node's resources into the
//! KVS under `resource.r<rank>` (cores, memory) — "Resources are
//! enumerated in the KVS and allocated when the scheduler runs an
//! application." Allocation requests (`resvc.alloc {jobid, nnodes}`)
//! route to the root instance, which maintains the free set, records the
//! allocation under `lwj.<jobid>.ranks`, and answers with the granted
//! ranks. `resvc.free {jobid}` returns them. Its callers are the `flux
//! resvc` sub-command and tests; flux-core's schedulers do not drive it.

use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_kvs::msg;
use flux_proto::{keys, KvsMethod, ResvcMethod};
use flux_value::Value;
use flux_wire::{errnum, Message};
use std::collections::BTreeSet;
use std::collections::HashMap;

/// Cores per node of the synthetic inventory every broker enumerates,
/// standing in for hwloc discovery on the paper's testbed nodes (2×
/// 8-core Xeon E5-2670).
const NODE_CORES: u32 = 16;
/// Memory per node in GiB, same testbed (32 GB).
const NODE_MEM_GB: u32 = 32;

/// The resource service module.
pub struct ResvcModule {
    /// Root only: ranks not currently allocated.
    free: BTreeSet<u32>,
    /// Root only: jobid → allocated ranks.
    allocations: HashMap<u64, Vec<u32>>,
}

impl ResvcModule {
    /// Creates the module.
    pub fn new() -> ResvcModule {
        ResvcModule { free: BTreeSet::new(), allocations: HashMap::new() }
    }

    fn handle_alloc(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) -> Handled {
        debug_assert!(ctx.is_root());
        let (Some(jobid), Some(nnodes)) = (
            msg.payload.get("jobid").and_then(Value::as_uint),
            msg.payload.get("nnodes").and_then(Value::as_uint),
        ) else {
            return ctx.respond_err(msg, errnum::EINVAL);
        };
        if nnodes == 0 || self.allocations.contains_key(&jobid) {
            return ctx.respond_err(msg, errnum::EINVAL);
        }
        if (self.free.len() as u64) < nnodes {
            return ctx.respond_err(msg, errnum::EAGAIN);
        }
        let granted: Vec<u32> = self.free.iter().take(nnodes as usize).copied().collect();
        for r in &granted {
            self.free.remove(r);
        }
        self.allocations.insert(jobid, granted.clone());
        // Record the allocation in the KVS for provenance.
        let ranks_val =
            Value::Array(granted.iter().map(|&r| Value::from(r)).collect());
        let put = msg::put(keys::lwj::ranks_key(jobid), ranks_val.clone());
        let _ = ctx.local_request(KvsMethod::Put.topic(), put);
        let _ = ctx.local_request(KvsMethod::Commit.topic(), Value::object());
        ctx.respond(
            msg,
            Value::from_pairs([
                ("jobid", Value::from(jobid as i64)),
                ("ranks", ranks_val),
            ]),
        )
    }

    fn handle_free(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) -> Handled {
        debug_assert!(ctx.is_root());
        let Some(jobid) = msg.payload.get("jobid").and_then(Value::as_uint) else {
            return ctx.respond_err(msg, errnum::EINVAL);
        };
        let Some(ranks) = self.allocations.remove(&jobid) else {
            return ctx.respond_err(msg, errnum::ENOENT);
        };
        self.free.extend(ranks);
        let unlink = msg::key(keys::lwj::ranks_key(jobid));
        let _ = ctx.local_request(KvsMethod::Unlink.topic(), unlink);
        let _ = ctx.local_request(KvsMethod::Commit.topic(), Value::object());
        ctx.respond(msg, Value::object())
    }
}

impl Default for ResvcModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for ResvcModule {
    fn name(&self) -> &'static str {
        "resvc"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Enumerate this node's resources into the KVS.
        let key = keys::resvc::resource_key(ctx.rank().0);
        let inv = Value::from_pairs([
            ("cores", Value::from(NODE_CORES)),
            ("mem_gb", Value::from(NODE_MEM_GB)),
            ("rank", Value::from(ctx.rank().0)),
        ]);
        let _ = ctx.local_request(KvsMethod::Put.topic(), msg::put(&key, inv));
        // The enumeration lands with a collective fence across all
        // brokers, so `resource.*` is complete once the fence resolves.
        let fence = msg::fence(keys::resvc::ENUMERATE_FENCE, u64::from(ctx.size()));
        let _ = ctx.local_request(KvsMethod::Fence.topic(), fence);
        if ctx.is_root() {
            self.free = (0..ctx.size()).collect();
        }
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        // The root's instance holds the free set; every other one passes
        // a known method on.
        match ResvcMethod::from_method(msg.header.topic.method()) {
            Some(_) if !ctx.is_root() => ctx.forward_upstream(msg),
            Some(ResvcMethod::Alloc) => self.handle_alloc(ctx, &msg),
            Some(ResvcMethod::Free) => self.handle_free(ctx, &msg),
            Some(ResvcMethod::Status) => ctx.respond(
                &msg,
                Value::from_pairs([
                    ("free", Value::from(self.free.len())),
                    ("total", Value::from(ctx.size())),
                    ("allocated_jobs", Value::from(self.allocations.len())),
                ]),
            ),
            None => ctx.respond_err(&msg, errnum::ENOSYS),
        }
    }
}
