//! End-to-end tests of the `flux` utility binary.

use std::process::Command;

fn flux(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_flux"))
        .args(args)
        .output()
        .expect("flux binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn kvs_roundtrip_via_cli() {
    let (stdout, stderr, ok) = flux(&[
        "--size", "6", "kvs", "put", "cli.x", "42", ";", "kvs", "commit", ";", "kvs", "get",
        "cli.x",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("cli.x staged"), "{stdout}");
    // The exact version races with resvc's startup enumeration fence
    // (which also commits), so only the shape is asserted.
    assert!(stdout.contains("committed: version"), "{stdout}");
    assert!(stdout.trim_end().ends_with("42"), "{stdout}");
}

#[test]
fn json_values_pass_through() {
    let (stdout, _, ok) = flux(&[
        "kvs", "put", "cli.obj", r#"{"a": [1, 2]}"#, ";", "kvs", "commit", ";", "kvs", "get",
        "cli.obj",
    ]);
    assert!(ok);
    assert!(stdout.contains("\"a\""), "{stdout}");
}

#[test]
fn ping_and_info() {
    let (stdout, _, ok) = flux(&["--size", "5", "ping", "2", ";", "info"]);
    assert!(ok);
    assert!(stdout.contains("pong from rank 2"), "{stdout}");
    assert!(stdout.contains("\"size\": 5"), "{stdout}");
    assert!(stdout.contains("\"modules\""), "{stdout}");
}

#[test]
fn wexec_run_and_read_output() {
    let (stdout, stderr, ok) = flux(&[
        "--size", "4", "run", "5", "echo", "hi-$RANK", ";", "wait-job", "5", ";", "kvs",
        "get", "lwj.5.2.stdout",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("4 tasks launched"), "{stdout}");
    assert!(stdout.contains("job 5 complete"), "{stdout}");
    assert!(stdout.contains("hi-2"), "{stdout}");
}

#[test]
fn wait_job_blocks_until_late_completion() {
    // `sleep 200` finishes 200 ms after launch, so the completion record
    // does not exist when `wait-job` starts: the initial watch snapshot
    // is null and the wait must ride a later watch update (regression
    // for the old sleep/re-get poll loop the watch stream replaced).
    let (stdout, stderr, ok) =
        flux(&["--size", "3", "run", "9", "sleep", "200", ";", "wait-job", "9"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("job 9 complete"), "{stdout}");
}

#[test]
fn resvc_alloc_and_free() {
    let (stdout, _, ok) = flux(&[
        "--size", "6", "resvc", "alloc", "9", "2", ";", "resvc", "status", ";", "resvc",
        "free", "9", ";", "resvc", "status",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"ranks\":[0,1]"), "{stdout}");
    assert!(stdout.contains("\"free\":4"), "{stdout}");
    assert!(stdout.contains("\"free\":6"), "{stdout}");
}

#[test]
fn errors_reported_with_nonzero_status() {
    let (_, stderr, ok) = flux(&["kvs", "get", "does.not.exist"]);
    assert!(!ok);
    assert!(stderr.contains("no such key"), "{stderr}");

    let (_, stderr, ok) = flux(&["bogus", "subcommand"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn group_membership_via_cli() {
    let (stdout, _, ok) = flux(&[
        "group", "join", "ops", ";", "group", "info", "ops", ";", "group", "leave", "ops", ";",
        "group", "info", "ops",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"size\":1"), "{stdout}");
    assert!(stdout.contains("\"size\":0"), "{stdout}");
}

/// Every session flag reaches the hosted session: a 3-ary tree (the
/// leaf answering `info` sits at depth 1, not the binary tree's 2), two
/// KVS shards (the commit answers per shard) on the socket transport,
/// under a delay-only fault plan that slows frames but loses none.
#[test]
fn session_flags_shape_the_hosted_session() {
    let (stdout, stderr, ok) = flux(&[
        "--size", "4", "--arity", "3", "--shards", "2", "--faults",
        "7:delay=0.05/1ms", "start", ";", "kvs", "put", "cli.f", "5", ";", "kvs", "commit", ";",
        "kvs", "get", "cli.f", ";", "info",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("session of 4 brokers up over tcp"), "{stdout}");
    assert!(stdout.contains("committed: shard "), "{stdout}");
    assert!(stdout.contains("\"depth\": 1"), "{stdout}");
    assert!(stdout.lines().any(|l| l == "5"), "{stdout}");
}

/// Malformed session flags exit 2 with the usage line before any
/// session starts.
#[test]
fn bad_session_flags_are_refused() {
    for (args, why) in [
        (&["--arity", "0", "start"][..], "--size and --arity must be at least 1"),
        (&["--size", "2", "--shards", "3", "start"][..], "--shards must be 1..=size"),
        (&["--size"][..], "--size needs a number"),
        (&["--size", "abc", "info"][..], "--size needs a number"),
        (&["--shards", "x", "start"][..], "--shards needs a number"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_flux"))
            .args(args)
            .output()
            .expect("flux binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: flux"), "{args:?}: {stderr}");
    }
}
