//! The `wexec` module: bulk remote execution.
//!
//! `wexec.run {jobid, targets, cmd}` fans out as a session event; every
//! targeted broker launches the task, captures its standard output into
//! the KVS under `lwj.<jobid>.<rank>.stdout`, and reports exit status up
//! the tree (statuses reduce on the way, one
//! [`flux_broker::reduce::Reduction`] keyed by job). When all targets
//! have reported, the root records `lwj.<jobid>.complete` in the KVS and
//! publishes a `wexec.complete` event. `wexec.kill` signals every task of
//! a job.
//!
//! ## Simulated processes
//!
//! Real `fork`/`exec` does not exist inside the simulator, so commands
//! are interpreted by a tiny built-in executor (see DESIGN.md's
//! substitution table):
//!
//! * `sleep <ms>` — completes after virtual `<ms>` milliseconds, exit 0;
//! * `echo <text>` — writes `<text>` (with `$RANK` expanded) to stdout,
//!   exit 0;
//! * `work <ms> <text>` — sleeps, then writes, exit 0;
//! * `fail <code>` — exits immediately with `<code>`;
//! * anything else — exit 127, like a shell.
//!
//! The protocol (bulk launch, monitoring, signals, I/O capture in the
//! KVS) is exactly the paper's; only the process body is synthetic.

use flux_broker::reduce::{Partial, Reduction};
use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_kvs::msg;
use flux_proto::{keys, Event, KvsMethod, WexecMethod};
use flux_value::Value;
use flux_wire::{errnum, Message, Rank};
use std::collections::{BTreeSet, HashMap};

/// A local task's lifecycle.
#[derive(Debug, Clone, PartialEq)]
enum TaskState {
    /// Waiting on its completion timer.
    Running,
    /// Finished with this exit code.
    Exited(i64),
}

struct Task {
    jobid: u64,
    state: TaskState,
    cmd: String,
}

/// Exit statuses of some of a job's tasks, reduced.
#[derive(Default)]
struct Status {
    reported: u64,
    failed: u64,
    max_code: i64,
}

impl Partial for Status {
    fn merge(&mut self, other: Status) {
        self.reported += other.reported;
        self.failed += other.failed;
        self.max_code = self.max_code.max(other.max_code);
    }
}

/// Root-side per-job completion tracking.
#[derive(Default)]
struct JobAcc {
    expected: u64,
    status: Status,
}

/// The wexec module.
pub struct WexecModule {
    /// Local tasks by timer token (== task handle).
    tasks: HashMap<u64, Task>,
    next_token: u64,
    /// Root only: job completion accounting.
    jobs: HashMap<u64, JobAcc>,
    /// Status contributions not yet flushed upstream (slaves), by job.
    unflushed: Reduction<u64, Status>,
}

impl WexecModule {
    /// Creates the module.
    pub fn new() -> WexecModule {
        WexecModule {
            tasks: HashMap::new(),
            next_token: 0,
            jobs: HashMap::new(),
            unflushed: Reduction::default(),
        }
    }

    /// Interprets a command for this rank: returns (runtime_ns, stdout,
    /// exit code).
    fn interpret(cmd: &str, rank: Rank) -> (u64, Option<String>, i64) {
        let mut parts = cmd.splitn(3, ' ');
        match parts.next() {
            Some("sleep") => {
                let ms: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                (ms * 1_000_000, None, 0)
            }
            Some("echo") => {
                let text = cmd.strip_prefix("echo ").unwrap_or("").to_owned();
                (0, Some(text.replace("$RANK", &rank.0.to_string())), 0)
            }
            Some("work") => {
                let ms: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                let text = parts.next().unwrap_or("").to_owned();
                (ms * 1_000_000, Some(text.replace("$RANK", &rank.0.to_string())), 0)
            }
            Some("fail") => {
                let code: i64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1);
                (0, None, code)
            }
            _ => (0, None, 127),
        }
    }

    fn targeted(targets: &Value, rank: Rank) -> bool {
        match targets {
            t if t.as_str() == Some("all") => true,
            Value::Array(ranks) => {
                ranks.iter().any(|r| r.as_uint() == Some(u64::from(rank.0)))
            }
            _ => false,
        }
    }

    /// True if `ranks` names at least one broker of a session `size`
    /// wide and none twice. Each listed broker launches once, so the job
    /// completes after `ranks.len()` reports; any other list leaves it
    /// waiting forever.
    fn launchable(ranks: &[Value], size: u64) -> bool {
        let mut listed = BTreeSet::new();
        !ranks.is_empty()
            && ranks.iter().all(|r| r.as_uint().is_some_and(|r| r < size && listed.insert(r)))
    }

    fn launch(&mut self, ctx: &mut ModuleCtx<'_>, jobid: u64, cmd: &str) {
        let (runtime_ns, stdout, code) = Self::interpret(cmd, ctx.rank());
        self.next_token += 1;
        let token = self.next_token;
        self.tasks.insert(
            token,
            Task { jobid, state: TaskState::Running, cmd: cmd.to_owned() },
        );
        if let Some(out) = stdout {
            // Standard I/O captured in the KVS (paper, Table I). Written
            // back lazily: the job-completion commit flushes it.
            let key = keys::lwj::stdout_key(jobid, ctx.rank().0);
            let _ = ctx.local_request(KvsMethod::Put.topic(), msg::put(&key, Value::from(out)));
            let _ = ctx.local_request(KvsMethod::Commit.topic(), Value::object());
        }
        if runtime_ns == 0 {
            self.finish_task(ctx, token, code);
        } else {
            // A task that runs for a while exits 0 when its timer fires
            // (`fail` has zero runtime and exited above), unless a kill
            // gets there first.
            ctx.set_timer(runtime_ns, token);
        }
    }

    fn finish_task(&mut self, ctx: &mut ModuleCtx<'_>, token: u64, code: i64) {
        let Some(task) = self.tasks.get_mut(&token) else { return };
        if matches!(task.state, TaskState::Exited(_)) {
            return;
        }
        task.state = TaskState::Exited(code);
        let jobid = task.jobid;
        let status = Status { reported: 1, failed: u64::from(code != 0), max_code: code };
        self.report_status(ctx, jobid, status);
    }

    /// Merge a status contribution and (at the root) check completion.
    fn report_status(&mut self, ctx: &mut ModuleCtx<'_>, jobid: u64, status: Status) {
        if ctx.is_root() {
            self.jobs.entry(jobid).or_default().status.merge(status);
            self.check_job_complete(ctx, jobid);
        } else {
            self.unflushed.contribute(jobid, status);
        }
    }

    fn check_job_complete(&mut self, ctx: &mut ModuleCtx<'_>, jobid: u64) {
        let Some(acc) = self.jobs.get(&jobid) else { return };
        if acc.expected == 0 || acc.status.reported < acc.expected {
            return;
        }
        let acc = self.jobs.remove(&jobid).expect("checked");
        let complete = Value::from_pairs([
            ("ntasks", Value::from(acc.expected as i64)),
            ("failed", Value::from(acc.status.failed as i64)),
            ("max_code", Value::Int(acc.status.max_code)),
        ]);
        let put = msg::put(keys::lwj::complete_key(jobid), complete.clone());
        let _ = ctx.local_request(KvsMethod::Put.topic(), put);
        let _ = ctx.local_request(KvsMethod::Commit.topic(), Value::object());
        let mut payload = complete;
        payload.insert("jobid", Value::from(jobid as i64));
        ctx.publish(Event::WexecComplete.topic(), payload);
    }
}

impl Default for WexecModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for WexecModule {
    fn name(&self) -> &'static str {
        "wexec"
    }

    fn subscriptions(&self) -> Vec<String> {
        vec![
            Event::WexecRun.topic_str().to_owned(),
            Event::WexecKill.topic_str().to_owned(),
        ]
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        match WexecMethod::from_method(msg.header.topic.method()) {
            Some(WexecMethod::Run) => {
                let (Some(jobid), Some(cmd), Some(targets)) = (
                    msg.payload.get("jobid").and_then(Value::as_uint),
                    msg.payload.get("cmd").and_then(Value::as_str),
                    msg.payload.get("targets"),
                ) else {
                    return ctx.respond_err(&msg, errnum::EINVAL);
                };
                let size = u64::from(ctx.size());
                let ntasks = match targets {
                    t if t.as_str() == Some("all") => size,
                    Value::Array(a) if Self::launchable(a, size) => a.len() as u64,
                    _ => return ctx.respond_err(&msg, errnum::EINVAL),
                };
                // Fan out as an event; every broker (including this one)
                // sees it in the session total order.
                ctx.publish(
                    Event::WexecRun.topic(),
                    Value::from_pairs([
                        ("jobid", Value::from(jobid as i64)),
                        ("cmd", Value::from(cmd)),
                        ("targets", targets.clone()),
                        ("ntasks", Value::from(ntasks as i64)),
                    ]),
                );
                ctx.respond(
                    &msg,
                    Value::from_pairs([
                        ("jobid", Value::from(jobid as i64)),
                        ("ntasks", Value::from(ntasks as i64)),
                    ]),
                )
            }
            Some(WexecMethod::Kill) => {
                let Some(jobid) = msg.payload.get("jobid").and_then(Value::as_uint) else {
                    return ctx.respond_err(&msg, errnum::EINVAL);
                };
                ctx.publish(
                    Event::WexecKill.topic(),
                    Value::from_pairs([("jobid", Value::from(jobid as i64))]),
                );
                ctx.respond(&msg, Value::object())
            }
            Some(WexecMethod::StatusUp) => {
                let (Some(jobid), Some(reported), Some(failed), Some(max_code)) = (
                    msg.payload.get("jobid").and_then(Value::as_uint),
                    msg.payload.get("reported").and_then(Value::as_uint),
                    msg.payload.get("failed").and_then(Value::as_uint),
                    msg.payload.get("max_code").and_then(Value::as_int),
                ) else {
                    return ctx.one_way(&msg);
                };
                if self.unflushed.admit(&msg.payload) {
                    self.report_status(ctx, jobid, Status { reported, failed, max_code });
                }
                ctx.one_way(&msg)
            }
            Some(WexecMethod::Ps) => {
                let running: Vec<Value> = self
                    .tasks
                    .values()
                    .filter(|t| t.state == TaskState::Running)
                    .map(|t| {
                        Value::from_pairs([
                            ("jobid", Value::from(t.jobid as i64)),
                            ("cmd", Value::from(t.cmd.as_str())),
                        ])
                    })
                    .collect();
                ctx.respond(&msg, Value::from_pairs([("tasks", Value::Array(running))]))
            }
            None => ctx.respond_err(&msg, errnum::ENOSYS),
        }
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match Event::from_topic_str(msg.header.topic.as_str()) {
            Some(Event::WexecRun) => {
                let (Some(jobid), Some(cmd), Some(targets)) = (
                    msg.payload.get("jobid").and_then(Value::as_uint),
                    msg.payload.get("cmd").and_then(Value::as_str).map(str::to_owned),
                    msg.payload.get("targets"),
                ) else {
                    return;
                };
                if ctx.is_root() {
                    let ntasks =
                        msg.payload.get("ntasks").and_then(Value::as_uint).unwrap_or(0);
                    let acc = self.jobs.entry(jobid).or_default();
                    acc.expected = ntasks;
                }
                if Self::targeted(targets, ctx.rank()) {
                    self.launch(ctx, jobid, &cmd);
                }
                if ctx.is_root() {
                    self.check_job_complete(ctx, jobid);
                }
            }
            Some(Event::WexecKill) => {
                let Some(jobid) = msg.payload.get("jobid").and_then(Value::as_uint) else {
                    return;
                };
                let tokens: Vec<u64> = self
                    .tasks
                    .iter()
                    .filter(|(_, t)| t.jobid == jobid && t.state == TaskState::Running)
                    .map(|(&tok, _)| tok)
                    .collect();
                for tok in tokens {
                    // 128 + SIGKILL, shell convention.
                    self.finish_task(ctx, tok, 137);
                }
            }
            _ => {}
        }
    }

    fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, _epoch: u64) {
        // Merged statuses climb one hop per heartbeat (nothing ever
        // waits at the root).
        let topic = WexecMethod::StatusUp.topic();
        self.unflushed.flush_all(ctx, &topic, |_, _| true, |jobid, status| {
            [
                ("jobid", Value::from(jobid as i64)),
                ("reported", Value::from(status.reported as i64)),
                ("failed", Value::from(status.failed as i64)),
                ("max_code", Value::Int(status.max_code)),
            ]
        });
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        self.finish_task(ctx, token, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpret_commands() {
        assert_eq!(WexecModule::interpret("sleep 50", Rank(1)), (50_000_000, None, 0));
        assert_eq!(
            WexecModule::interpret("echo hi $RANK", Rank(3)),
            (0, Some("hi 3".to_owned()), 0)
        );
        assert_eq!(
            WexecModule::interpret("work 10 r$RANK", Rank(2)),
            (10_000_000, Some("r2".to_owned()), 0)
        );
        assert_eq!(WexecModule::interpret("fail 42", Rank(0)), (0, None, 42));
        assert_eq!(WexecModule::interpret("bogus", Rank(0)), (0, None, 127));
    }

    #[test]
    fn targeting() {
        assert!(WexecModule::targeted(&Value::from("all"), Rank(7)));
        let some = Value::from(vec![1i64, 3, 5]);
        assert!(WexecModule::targeted(&some, Rank(3)));
        assert!(!WexecModule::targeted(&some, Rank(2)));
        assert!(!WexecModule::targeted(&Value::Null, Rank(0)));
    }

    #[test]
    fn an_all_target_decoded_as_a_view_runs_on_every_rank() {
        let run = Value::from_pairs([
            ("cmd", Value::from("echo hi")),
            ("jobid", Value::Int(1)),
            ("targets", Value::from("all")),
        ]);
        let buf: std::sync::Arc<[u8]> = run.encode_canonical().into();
        let run = Value::decode_canonical_shared(&buf, 0).expect("own encoding decodes");
        let targets = run.get("targets").expect("targets");
        assert!(matches!(targets, Value::StrView(_)), "{targets:?} is a view");
        assert!(WexecModule::targeted(targets, Rank(3)));
        let req = Message::request(
            WexecMethod::Run.topic(),
            flux_wire::MsgId { origin: Rank(0), seq: 1 },
            Rank(0),
            run,
        );
        let (_, outs) = flux_broker::testing::with_ctx(0, 4, |ctx| {
            WexecModule::new().handle_request(ctx, req);
        });
        let ntasks = outs.iter().filter_map(|o| o.message()).find_map(|m| m.payload.get("ntasks"));
        assert_eq!(ntasks, Some(&Value::Int(4)), "{outs:?}");
    }
}
