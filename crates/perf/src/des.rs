//! Running and verifying the three simulator workloads.
//!
//! One *rep* is one `ScriptTransport::run_scripts` call on a fresh
//! `SimTransport` session — build, run to quiescence, tear down — timed
//! from outside. Every rep is verified op by op against what the
//! generator wrote, and reduced to a [`RepRecord`] that must be identical
//! from rep to rep: the simulator is deterministic, so a difference is a
//! bug, not noise.

use crate::gen::DesPlan;
use crate::trace::Tracer;
use flux_broker::CommsModule;
use flux_kvs::KvsModule;
use flux_modules::BarrierModule;
use flux_rt::transport::{ScriptReport, ScriptTransport, SimTransport};
use flux_sim::NetParams;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The deterministic part of a rep: the paper's phase maxima in virtual
/// time, plus the event and byte counts that explain them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RepRecord {
    /// Engine events processed.
    pub events: u64,
    /// Bytes delivered over all links.
    pub bytes: u64,
    /// Virtual time when the run ended, ns.
    pub makespan_ns: u64,
    /// Max over processes: set-up barrier exit → last put/commit ack, ns.
    pub producer_ns: u64,
    /// Max over processes: producer end → fence / wait_version done, ns.
    pub sync_ns: u64,
    /// Max over processes: sync done → last get done, ns.
    pub consumer_ns: u64,
}

/// One timed rep.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Wall-clock of the whole `run_scripts` call, seconds.
    pub wall_s: f64,
    /// Wall-clock the engine reports for its dispatch loop, seconds.
    pub engine_wall_s: f64,
    /// `None` if the program panicked.
    pub record: Option<RepRecord>,
    /// Ops that failed verification.
    pub failed: u64,
}

/// Checks every outcome of `report` against `plan`: returns the number of
/// failed ops (an op with `op_err != 0`, every op an unfinished script
/// never reached, a get whose reply is not the generated value) and the
/// rep's deterministic record.
pub fn verify(plan: &DesPlan, report: &ScriptReport) -> (u64, RepRecord) {
    let mut failed = 0u64;
    let mut record = RepRecord {
        events: report.events,
        bytes: report.bytes,
        makespan_ns: report.makespan_ns,
        producer_ns: 0,
        sync_ns: 0,
        consumer_ns: 0,
    };
    for (p, ((_, ops), out)) in plan.scripts.iter().zip(&report.outcomes).enumerate() {
        let proc_plan = &plan.procs[p];
        failed += out.op_err.iter().filter(|&&e| e != 0).count() as u64;
        if !out.finished {
            failed += (ops.len() - out.op_err.len().min(ops.len())) as u64;
            continue;
        }
        for &(op, obj) in &proc_plan.gets {
            if out.op_err[op] == 0 && out.replies[op].get("v") != Some(&plan.objects[obj].1) {
                failed += 1;
            }
        }
        let done = &out.op_done_ns;
        let (produce_end, sync_done) = (done[proc_plan.produce_end], done[proc_plan.sync_at]);
        record.producer_ns = record.producer_ns.max(produce_end - done[0]);
        record.sync_ns = record.sync_ns.max(sync_done - produce_end);
        record.consumer_ns = record.consumer_ns.max(done[done.len() - 1] - sync_done);
    }
    // A script the transport never reported on failed entirely.
    for (_, ops) in plan.scripts.iter().skip(report.outcomes.len()) {
        failed += ops.len() as u64;
    }
    (failed, record)
}

/// Runs one rep of `plan` on the simulator and verifies it, under a
/// `run` and a `verify` span. A panic inside the program fails every op
/// of the rep instead of aborting the benchmark.
pub fn run_rep(plan: &DesPlan, tracer: &mut Tracer) -> Rep {
    let transport = SimTransport {
        net: NetParams::default(),
        overlay: plan.overlay,
        ..SimTransport::default()
    };
    let kvs = plan.kvs;
    let factory = move |_| {
        vec![
            Box::new(KvsModule::with_config(kvs)) as Box<dyn CommsModule>,
            Box::new(BarrierModule::new()),
        ]
    };
    // The copy the session consumes is made before the clock starts, and
    // the report is dropped after it stops.
    let scripts = plan.scripts.clone();
    let span = tracer.enter("run");
    let outcome =
        catch_unwind(AssertUnwindSafe(|| transport.run_scripts(plan.nodes, 2, &factory, scripts)));
    let wall_s = tracer.exit(span, plan.total_ops());
    match outcome {
        Ok(report) => {
            let span = tracer.enter("verify");
            let (failed, record) = verify(plan, &report);
            tracer.exit(span, plan.total_ops());
            Rep { wall_s, engine_wall_s: report.wall_ns as f64 / 1e9, record: Some(record), failed }
        }
        Err(_) => Rep { wall_s, engine_wall_s: 0.0, record: None, failed: plan.total_ops() },
    }
}

/// The determinism check: a rep whose record differs from `reference`
/// (or that has none) counts every one of its ops as failed.
pub fn cross_check(reference: Option<RepRecord>, reps: &mut [Rep], ops_per_rep: u64) {
    for rep in reps {
        if rep.record.is_none() || rep.record != reference {
            rep.failed = ops_per_rep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{des_plan, Scale, Workload};
    use flux_value::Value;

    const DES: [Workload; 3] =
        [Workload::Fence8k, Workload::CommitSharded2k, Workload::ReadFanout1k];

    fn run(plan: &DesPlan) -> Rep {
        run_rep(plan, &mut Tracer::new(false))
    }

    #[test]
    fn every_simulator_workload_verifies_clean_and_repeats_exactly() {
        for w in DES {
            let plan = des_plan(w, 3, Scale::Smoke);
            let a = run(&plan);
            let b = run(&des_plan(w, 3, Scale::Smoke));
            assert_eq!(a.failed, 0, "{}", w.name());
            let rec = a.record.expect("no panic");
            assert!(rec.events > 0 && rec.bytes > 0 && rec.makespan_ns > 0, "{}", w.name());
            assert!(rec.sync_ns > 0 && rec.consumer_ns > 0, "{}", w.name());
            assert_eq!(a.record, b.record, "{}: same seed, same virtual times", w.name());
        }
    }

    #[test]
    fn a_wrong_expected_value_is_counted_as_a_failed_op() {
        let mut plan = des_plan(Workload::Fence8k, 3, Scale::Smoke);
        let (_, victim) = plan.procs[5].gets[0];
        plan.objects[victim].1 = Value::from("not what was put");
        let rep = run(&plan);
        // Exactly one process reads that object, and only its get fails:
        // the put op carried its own copy of the real value.
        assert_eq!(rep.failed, 1);
    }

    #[test]
    fn a_perturbed_rep_record_trips_the_cross_rep_check() {
        let plan = des_plan(Workload::ReadFanout1k, 3, Scale::Smoke);
        let mut reps = vec![run(&plan), run(&plan)];
        let reference = reps[0].record;
        cross_check(reference, &mut reps, plan.total_ops());
        assert!(reps.iter().all(|r| r.failed == 0));
        reps[1].record.as_mut().unwrap().events += 1;
        cross_check(reference, &mut reps, plan.total_ops());
        assert_eq!((reps[0].failed, reps[1].failed), (0, plan.total_ops()));
    }
}
