//! The `flux` utility.
//!
//! Paper §IV-A: *"A flux utility wraps command line access to about two
//! dozen modular Flux sub-commands."* This binary hosts an ephemeral
//! comms session over loopback TCP (there are no long-running daemons in
//! the reproduction) and runs one or more sub-commands against it:
//!
//! ```text
//! flux [--size N] [--arity K] [--shards N] [--faults SEED:SPEC]
//!      <command> [; <command>]...
//!
//! commands:
//!   start                        wire up the session and ping every rank
//!   info                         broker/session facts (from a leaf)
//!   ping <rank>                  rank-addressed ping over the ring
//!   kvs put <key> <json>         write-back put
//!   kvs get <key>                read a value
//!   kvs dir <key>                list a directory
//!   kvs unlink <key>             delete a key
//!   kvs commit                   flush this client's puts
//!   kvs version                  current root version
//!   kvs stats                    local cache statistics
//!   barrier <name> <nprocs>      enter a collective barrier
//!   run <jobid> <cmd...>         wexec bulk-launch on all ranks
//!   wait-job <jobid>             watch until a job's completion record lands
//!   ps                           local wexec process table
//!   log msg <level> <text...>    append to the session log
//!   log query                    dump the root session log
//!   log dump <rank>              a rank's circular debug buffer
//!   mon add <name> <metric>      register a sampler
//!   group join|info|leave <name> group membership
//!   resvc status|alloc|free ...  resource service
//!   up                           liveness view
//! ```
//!
//! Multiple commands separated by `;` run against the *same* session, so
//! `flux kvs put a.b 42 ; kvs commit ; kvs get a.b` round-trips.
//!
//! The session's brokers are linked over loopback TCP sockets, as the
//! paper's are: each broker runs one reactor thread that scans all of
//! its nonblocking sockets and parks on its command channel when none is
//! ready (DESIGN.md §19). `flux start` wires up the session and pings
//! every rank. A flag whose value is missing or not a number is refused
//! (exit 2, with the usage line) before any session starts.
//!
//! `--shards N` splits the KVS namespace by key hash across masters on
//! ranks `0..N`; a commit then answers with every shard's version.
//!
//! `--faults SEED:SPEC` runs the session under a deterministic fault
//! plan (see `flux_rt::FaultPlan::parse`): e.g.
//! `flux --faults 7:drop=0.01,delay=0.05/2ms,kill=3@6..14 start` drops
//! 1% of messages, delays 5% by up to 2 ms, and silences rank 3 for
//! heartbeat epochs 6..14. The same `SEED:SPEC` reproduces the same
//! per-link fault decisions run to run.

use flux_broker::client::{ClientCore, Delivery};
use flux_kvs::msg;
use flux_modules::{standard_modules, standard_modules_with_kvs};
use flux_proto::{
    keys, BarrierMethod, CmbMethod, GroupMethod, KvsMethod, LiveMethod, LogMethod, MonMethod,
    ResvcMethod, WexecMethod,
};
use flux_rt::transport::LiveTransport;
use flux_rt::{FaultPlan, LiveClient};
use flux_value::Value;
use flux_wire::{Message, Rank, Topic};
use std::process::ExitCode;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

struct Cli {
    conn: LiveClient,
    core: ClientCore,
    tag: u64,
    size: u32,
}

impl Cli {
    fn rpc(&mut self, topic: Topic, payload: Value) -> Result<Message, String> {
        self.tag += 1;
        self.conn.send(self.core.request(topic, payload, self.tag));
        self.wait_reply()
    }

    fn rpc_to(&mut self, rank: Rank, topic: Topic, payload: Value) -> Result<Message, String> {
        self.tag += 1;
        self.conn.send(self.core.request_to(rank, topic, payload, self.tag));
        self.wait_reply()
    }

    /// Blocks until `key` holds a value, without polling: the KVS watch
    /// protocol answers with an immediate snapshot (`Null` for a missing
    /// key) and then streams one update per root change, so the client
    /// parks in `recv_timeout` instead of a sleep/re-get loop.
    fn wait_key(&mut self, key: &str) -> Result<Value, String> {
        self.tag += 1;
        let req = self.core.request(KvsMethod::Watch.topic(), msg::key(key), self.tag);
        let watch_id = req.header.id;
        self.core.expect_stream(watch_id);
        self.conn.send(req);
        let deadline = std::time::Instant::now() + TIMEOUT;
        let result = loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break Err("timed out waiting for the key".into());
            }
            let Some(msg) = self.conn.recv_timeout(left) else { continue };
            match self.core.deliver(msg) {
                Delivery::Response { msg, .. } => {
                    if msg.is_error() {
                        break Err(format!(
                            "{} ({})",
                            flux_wire::errnum::strerror(msg.header.errnum),
                            msg.header.errnum
                        ));
                    }
                    let (_, v) = msg::watch_update(&msg.payload);
                    if *v != Value::Null {
                        break Ok(v.clone());
                    }
                    // Initial snapshot of a missing key — keep waiting.
                }
                Delivery::Event(_) | Delivery::Unmatched(_) => continue,
            }
        };
        // Tear down the stream and the broker-side watcher either way.
        self.core.cancel(watch_id);
        let _ = self.rpc(KvsMethod::Unwatch.topic(), msg::key(key));
        result
    }

    fn wait_reply(&mut self) -> Result<Message, String> {
        let deadline = std::time::Instant::now() + TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err("timed out waiting for a reply".into());
            }
            let Some(msg) = self.conn.recv_timeout(left) else { continue };
            match self.core.deliver(msg) {
                Delivery::Response { msg, .. } => {
                    if msg.is_error() {
                        return Err(format!(
                            "{} ({})",
                            flux_wire::errnum::strerror(msg.header.errnum),
                            msg.header.errnum
                        ));
                    }
                    return Ok(msg);
                }
                Delivery::Event(_) | Delivery::Unmatched(_) => continue,
            }
        }
    }
}

fn parse_json_arg(s: &str) -> Value {
    Value::parse(s).unwrap_or_else(|_| Value::from(s))
}

fn run_command(cli: &mut Cli, cmd: &[String]) -> Result<String, String> {
    let words: Vec<&str> = cmd.iter().map(String::as_str).collect();
    match words.as_slice() {
        ["start"] => {
            // Prove the overlay is wired end to end: a rank-addressed
            // ping makes a full trip over the ring to every broker.
            for r in 0..cli.size {
                cli.rpc_to(Rank(r), CmbMethod::Ping.topic(), Value::object())
                    .map_err(|e| format!("rank {r} unreachable: {e}"))?;
            }
            Ok(format!(
                "session of {} brokers up over tcp (all ranks answered ping)",
                cli.size
            ))
        }
        ["info"] => {
            let m = cli.rpc(CmbMethod::Info.topic(), Value::Null)?;
            Ok(m.payload.to_json_pretty())
        }
        ["ping", rank] => {
            let r: u32 = rank.parse().map_err(|_| "bad rank".to_string())?;
            let t0 = std::time::Instant::now();
            let m = cli.rpc_to(Rank(r), CmbMethod::Ping.topic(), Value::object())?;
            Ok(format!(
                "pong from rank {} in {:?}",
                m.payload.get("pong").cloned().unwrap_or(Value::Null),
                t0.elapsed()
            ))
        }
        ["kvs", "put", key, json] => {
            cli.rpc(KvsMethod::Put.topic(), msg::put(key, parse_json_arg(json)))?;
            Ok(format!("{key} staged (commit to publish)"))
        }
        ["kvs", "get", key] => {
            let m = cli.rpc(KvsMethod::Get.topic(), msg::key(key))?;
            Ok(msg::value(&m.payload).unwrap_or(&Value::Null).to_json_pretty())
        }
        ["kvs", "dir", key] => {
            let m = cli.rpc(KvsMethod::Get.topic(), msg::dir(key))?;
            let names: Vec<String> = msg::listing(&m.payload)
                .and_then(Value::as_object)
                .map(|o| o.keys().cloned().collect())
                .unwrap_or_default();
            Ok(names.join("\n"))
        }
        ["kvs", "unlink", key] => {
            cli.rpc(KvsMethod::Unlink.topic(), msg::key(key))?;
            Ok(format!("{key} unlink staged"))
        }
        ["kvs", "commit"] => {
            let m = cli.rpc(KvsMethod::Commit.topic(), Value::object())?;
            // An N-shard session answers with the per-shard frontier
            // instead of a single version/root pair.
            let cut = msg::decode_cut(&m.payload);
            if cut.shards.is_some() {
                let slots: Vec<String> =
                    cut.roots.iter().map(|r| format!("shard {} version {}", r.shard, r.version)).collect();
                return Ok(format!("committed: {}", slots.join(", ")));
            }
            let at = cut.roots.first().cloned().unwrap_or_default();
            Ok(format!("committed: version {} root {}", at.version, at.root))
        }
        ["kvs", "version"] => {
            let m = cli.rpc(KvsMethod::GetVersion.topic(), Value::object())?;
            Ok(m.payload.to_json())
        }
        ["kvs", "stats"] => {
            let m = cli.rpc(KvsMethod::Stats.topic(), Value::object())?;
            Ok(m.payload.to_json_pretty())
        }
        ["barrier", name, nprocs] => {
            let n: i64 = nprocs.parse().map_err(|_| "bad nprocs".to_string())?;
            let m = cli.rpc(
                BarrierMethod::Enter.topic(),
                Value::from_pairs([("name", Value::from(*name)), ("nprocs", Value::Int(n))]),
            )?;
            Ok(format!("barrier {} released", m.payload.get("name").unwrap_or(&Value::Null)))
        }
        ["run", jobid, rest @ ..] if !rest.is_empty() => {
            let id: i64 = jobid.parse().map_err(|_| "bad jobid".to_string())?;
            let m = cli.rpc(
                WexecMethod::Run.topic(),
                Value::from_pairs([
                    ("jobid", Value::Int(id)),
                    ("cmd", Value::from(rest.join(" "))),
                    ("targets", Value::from("all")),
                ]),
            )?;
            Ok(format!(
                "job {id}: {} tasks launched (stdout in lwj.{id}.<rank>.stdout)",
                m.payload.get("ntasks").cloned().unwrap_or(Value::Null)
            ))
        }
        ["wait-job", jobid] => {
            let id: i64 = jobid.parse().map_err(|_| "bad jobid".to_string())?;
            let key = keys::lwj::complete_key(id as u64);
            let v = cli
                .wait_key(&key)
                .map_err(|e| format!("job {id} did not complete: {e}"))?;
            Ok(format!("job {id} complete: {}", v.to_json()))
        }
        ["ps"] => {
            let m = cli.rpc(WexecMethod::Ps.topic(), Value::object())?;
            Ok(m.payload.to_json_pretty())
        }
        ["log", "msg", level, rest @ ..] if !rest.is_empty() => {
            let lvl: i64 = level.parse().map_err(|_| "bad level".to_string())?;
            cli.rpc(
                LogMethod::Msg.topic(),
                Value::from_pairs([
                    ("level", Value::Int(lvl)),
                    ("text", Value::from(rest.join(" "))),
                ]),
            )?;
            Ok("logged".into())
        }
        ["log", "query"] => {
            let m = cli.rpc(LogMethod::Query.topic(), Value::object())?;
            let entries = m.payload.get("entries").cloned().unwrap_or(Value::array());
            let mut out = String::new();
            for e in entries.as_array().unwrap_or(&[]) {
                out.push_str(&format!(
                    "[{}] r{}: {}\n",
                    e.get("level").cloned().unwrap_or(Value::Null),
                    e.get("rank").cloned().unwrap_or(Value::Null),
                    e.get("text").and_then(Value::as_str).unwrap_or("")
                ));
            }
            Ok(out.trim_end().to_owned())
        }
        ["log", "dump", rank] => {
            let r: u32 = rank.parse().map_err(|_| "bad rank".to_string())?;
            let m = cli.rpc_to(Rank(r), LogMethod::Dump.topic(), Value::object())?;
            Ok(m.payload.to_json_pretty())
        }
        ["mon", "add", name, metric] => {
            cli.rpc(
                MonMethod::Add.topic(),
                Value::from_pairs([
                    ("name", Value::from(*name)),
                    ("metric", Value::from(*metric)),
                    ("period", Value::Int(1)),
                ]),
            )?;
            Ok(format!("sampler {name} registered (data under mon.data.{name}.*)"))
        }
        ["group", verb @ ("join" | "leave" | "info"), name] => {
            let method = match *verb {
                "join" => GroupMethod::Join,
                "leave" => GroupMethod::Leave,
                _ => GroupMethod::Info,
            };
            let m = cli.rpc(method.topic(), Value::from_pairs([("name", Value::from(*name))]))?;
            Ok(m.payload.to_json())
        }
        ["resvc", "status"] => {
            let m = cli.rpc(ResvcMethod::Status.topic(), Value::object())?;
            Ok(m.payload.to_json())
        }
        ["resvc", "alloc", jobid, nnodes] => {
            let id: i64 = jobid.parse().map_err(|_| "bad jobid".to_string())?;
            let n: i64 = nnodes.parse().map_err(|_| "bad nnodes".to_string())?;
            let m = cli.rpc(
                ResvcMethod::Alloc.topic(),
                Value::from_pairs([("jobid", Value::Int(id)), ("nnodes", Value::Int(n))]),
            )?;
            Ok(m.payload.to_json())
        }
        ["resvc", "free", jobid] => {
            let id: i64 = jobid.parse().map_err(|_| "bad jobid".to_string())?;
            let m = cli.rpc(ResvcMethod::Free.topic(), Value::from_pairs([("jobid", Value::Int(id))]))?;
            Ok(m.payload.to_json())
        }
        ["up"] => {
            let m = cli.rpc(LiveMethod::Status.topic(), Value::object())?;
            Ok(m.payload.to_json())
        }
        _ => Err(format!("unknown command: {}", words.join(" "))),
    }
}

const USAGE: &str = "usage: flux [--size N] [--arity K] [--shards N] [--faults SEED:SPEC] \
                     <command> [; <command>]...";

/// Refuses a malformed command line before any session starts.
fn refuse(why: &str) -> ExitCode {
    eprintln!("flux: {why}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let (mut size, mut arity, mut shards) = (8u32, 2u32, 1u32);
    let mut faults: Option<String> = None;
    while let Some(flag) = args.first().filter(|a| a.starts_with("--")).cloned() {
        args.remove(0);
        let number = match flag.as_str() {
            "--size" => &mut size,
            "--arity" => &mut arity,
            "--shards" => &mut shards,
            "--faults" if !args.is_empty() => {
                faults = Some(args.remove(0));
                continue;
            }
            "--faults" => return refuse("--faults needs a SEED:SPEC value"),
            "--help" => {
                eprintln!("see `flux` module docs; e.g. flux kvs put a.b 42 \\; kvs commit \\; kvs get a.b");
                return ExitCode::SUCCESS;
            }
            other => return refuse(&format!("unknown flag {other}")),
        };
        let Some(Ok(n)) = args.first().map(|v| v.parse::<u32>()) else {
            return refuse(&format!("{flag} needs a number"));
        };
        *number = n;
        args.remove(0);
    }
    if args.is_empty() {
        return refuse("no command given");
    }
    if size == 0 || arity == 0 {
        return refuse("--size and --arity must be at least 1");
    }
    if shards == 0 || shards > size {
        return refuse("--shards must be 1..=size (shard masters live on ranks 0..shards)");
    }

    // Host an ephemeral session over loopback TCP; attach at the last
    // rank (a leaf).
    let mut live = LiveTransport::default();
    if let Some(flag) = faults {
        // Epoch windows in the spec are scaled by the default heartbeat
        // period (the CLI does not override broker configs).
        let hb = flux_broker::BrokerConfig::new(Rank(0), size).hb_period_ns;
        match FaultPlan::parse_flag(&flag, hb) {
            Ok(plan) => live = live.with_faults(plan),
            Err(e) => return refuse(&e.to_string()),
        }
    }
    let factory = move |_: Rank| {
        if shards > 1 {
            standard_modules_with_kvs(flux_kvs::KvsConfig { shards, ..Default::default() })
        } else {
            standard_modules()
        }
    };
    let leaf = Rank(size - 1);
    live.with_session(size, arity, &factory, &[leaf], |mut clients| {
        let conn = clients.pop().expect("with_session attaches one client per requested rank");
        let core = ClientCore::new(leaf, conn.client_id);
        let mut cli = Cli { conn, core, tag: 0, size };

        let mut status = ExitCode::SUCCESS;
        for cmd in args.split(|a| a == ";") {
            if cmd.is_empty() {
                continue;
            }
            match run_command(&mut cli, cmd) {
                Ok(out) => {
                    if !out.is_empty() {
                        println!("{out}");
                    }
                }
                Err(e) => {
                    eprintln!("flux: {}: {e}", cmd.join(" "));
                    status = ExitCode::FAILURE;
                }
            }
        }
        status
    })
}
