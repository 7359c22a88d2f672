//! Simulator-side stale-read coverage.
//!
//! The no-stale-reads check itself runs against every runtime from
//! `tests/conformance.rs`; this file keeps the deterministic
//! interleaving proof that the scenario really reads the old value from
//! a warm slave cache before the root switch (live schedules can't
//! guarantee that).

use flux_broker::CommsModule;
use flux_kvs::{KvsConfig, KvsModule};
use flux_modules::BarrierModule;
use flux_rt::script::Op;
use flux_rt::transport::{ScriptTransport, SimTransport};
use flux_value::Value;
use flux_wire::Rank;

fn modules(_r: Rank) -> Vec<Box<dyn CommsModule>> {
    vec![
        Box::new(KvsModule::with_config(KvsConfig::default())),
        Box::new(BarrierModule::new()),
    ]
}

/// On the simulator the interleaving is fixed: the pause guarantees the
/// reader's first two gets land between the commits, so its broker
/// holds v1's whole path warm when the v2 root switch arrives.
#[test]
fn sim_interleaving_reads_v1_warm_before_the_root_switch() {
    let writer = vec![
        Op::Put { key: "sr.k".into(), val: Value::Int(1) },
        Op::Commit,
        Op::Pause(200_000),
        Op::Put { key: "sr.k".into(), val: Value::Int(2) },
        Op::Commit,
    ];
    let reader = vec![
        Op::WaitVersion(1),
        Op::Get { key: "sr.k".into() },
        Op::Get { key: "sr.k".into() },
        Op::WaitVersion(2),
        Op::Get { key: "sr.k".into() },
    ];
    let scripts = vec![(Rank(1), writer), (Rank(3), reader)];
    let report = SimTransport::default().run_scripts(4, 2, &modules, scripts);
    let reader = &report.outcomes[1];
    assert_eq!(reader.replies[1].get("v"), Some(&Value::Int(1)), "first read sees v1");
    assert_eq!(reader.replies[2].get("v"), Some(&Value::Int(1)), "warm re-read sees v1");
    assert_eq!(reader.replies[4].get("v"), Some(&Value::Int(2)), "post-wait read sees v2");
}
