//! The `log` module: reduced, filtered session logging.
//!
//! `log.msg {level, text}` appends to a per-broker circular debug buffer;
//! entries at or above the forwarding level are batched and flushed
//! upstream on each heartbeat, merging with other brokers' batches on the
//! way (a [`flux_broker::reduce::Reduction`] with one key), until they
//! land in the session log at the root. A `log.fault` event makes every
//! broker send its circular buffer up the same way at once — the paper's
//! "circular debug buffer provides log context in response to a fault
//! event". `log.dump` returns the local buffer (rank-addressable for
//! debugging); `log.query` returns the root log.

use flux_broker::reduce::{Partial, Reduction};
use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_proto::{Event, LogMethod};
use flux_value::Value;
use flux_wire::{errnum, Message};
use std::collections::VecDeque;

/// One log record.
#[derive(Debug, Clone, PartialEq)]
struct LogEntry {
    /// Originating broker rank.
    rank: u32,
    /// Severity, syslog-flavoured: lower is more severe.
    level: i64,
    /// Message text.
    text: String,
    /// Origin timestamp in nanoseconds.
    time_ns: u64,
}

impl LogEntry {
    fn to_value(&self) -> Value {
        Value::from_pairs([
            ("rank", Value::from(self.rank)),
            ("level", Value::Int(self.level)),
            ("text", Value::from(self.text.as_str())),
            ("time_ns", Value::Int(self.time_ns as i64)),
        ])
    }

    fn from_value(v: &Value) -> Option<LogEntry> {
        Some(LogEntry {
            rank: v.get("rank")?.as_uint()? as u32,
            level: v.get("level")?.as_int()?,
            text: v.get("text")?.as_str()?.to_owned(),
            time_ns: v.get("time_ns")?.as_int()? as u64,
        })
    }
}

/// Entries on their way to the root.
struct Batch(Vec<LogEntry>);

impl Partial for Batch {
    fn merge(&mut self, other: Batch) {
        self.0.extend(other.0);
    }
}

/// Circular debug buffer capacity per broker (the paper's "circular
/// debug buffer"; Table I gives no size, this is the seed's).
const RING_CAPACITY: usize = 256;
/// syslog's INFO level (lower is more severe): what a `log.msg` naming
/// no level is logged at.
const INFO: i64 = 6;
/// Only entries at or above (numerically ≤) this level forward to the
/// root on heartbeats; debug chatter stays in the ring.
const FORWARD_LEVEL: i64 = INFO;
/// Root session log capacity (oldest entries drop beyond this); 8 per
/// broker at the paper's 8192 ranks.
const ROOT_CAPACITY: usize = 65536;

/// The log module.
pub struct LogModule {
    /// Circular debug buffer (all levels).
    ring: VecDeque<LogEntry>,
    /// Entries awaiting the next flush.
    batch: Reduction<(), Batch>,
    /// Root only: the session log.
    session_log: VecDeque<LogEntry>,
}

impl LogModule {
    /// Creates the module.
    pub fn new() -> LogModule {
        LogModule {
            ring: VecDeque::new(),
            batch: Reduction::default(),
            session_log: VecDeque::new(),
        }
    }

    fn append(&mut self, ctx: &mut ModuleCtx<'_>, entry: LogEntry) {
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(entry.clone());
        if entry.level <= FORWARD_LEVEL {
            if ctx.is_root() {
                self.root_store(entry);
            } else {
                self.batch.contribute((), Batch(vec![entry]));
            }
        }
    }

    fn root_store(&mut self, entry: LogEntry) {
        if self.session_log.len() == ROOT_CAPACITY {
            self.session_log.pop_front();
        }
        self.session_log.push_back(entry);
    }

    fn entries_value(entries: impl Iterator<Item = LogEntry>) -> Value {
        Value::Array(entries.map(|e| e.to_value()).collect())
    }

    /// Sends what waits one hop up (nothing ever waits at the root).
    fn flush_batch(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.batch.flush(ctx, &LogMethod::Batch.topic(), &(), |(), Batch(entries)| {
            Value::from_pairs([("entries", Self::entries_value(entries.into_iter()))])
        });
    }
}

impl Default for LogModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for LogModule {
    fn name(&self) -> &'static str {
        "log"
    }

    fn subscriptions(&self) -> Vec<String> {
        vec![Event::LogFault.topic_str().to_owned()]
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        match LogMethod::from_method(msg.header.topic.method()) {
            Some(LogMethod::Msg) => {
                let level = msg.payload.get("level").and_then(Value::as_int).unwrap_or(INFO);
                let Some(text) = msg.payload.get("text").and_then(Value::as_str) else {
                    return ctx.respond_err(&msg, errnum::EINVAL);
                };
                let entry = LogEntry {
                    rank: ctx.rank().0,
                    level,
                    text: text.to_owned(),
                    time_ns: ctx.now_ns(),
                };
                self.append(ctx, entry);
                ctx.respond(&msg, Value::object())
            }
            Some(LogMethod::Batch) => {
                // Merged entries climbing the tree (one-way). Interior
                // brokers re-batch; the root stores.
                let Some(arr) = msg.payload.get("entries").and_then(Value::as_array) else {
                    return ctx.one_way(&msg);
                };
                if !self.batch.admit(&msg.payload) {
                    return ctx.one_way(&msg);
                }
                let entries: Vec<LogEntry> =
                    arr.iter().filter_map(LogEntry::from_value).collect();
                if ctx.is_root() {
                    for e in entries {
                        self.root_store(e);
                    }
                } else {
                    self.batch.contribute((), Batch(entries));
                }
                ctx.one_way(&msg)
            }
            Some(LogMethod::Dump) => {
                // Local circular buffer (rank-addressable for debugging).
                ctx.respond(
                    &msg,
                    Value::from_pairs([(
                        "entries",
                        Self::entries_value(self.ring.iter().cloned()),
                    )]),
                )
            }
            Some(LogMethod::Query) => {
                if ctx.is_root() {
                    let min_level =
                        msg.payload.get("level").and_then(Value::as_int).unwrap_or(i64::MAX);
                    let entries = self
                        .session_log
                        .iter()
                        .filter(|e| e.level <= min_level)
                        .cloned();
                    ctx.respond(
                        &msg,
                        Value::from_pairs([("entries", Self::entries_value(entries))]),
                    )
                } else {
                    // The root's instance holds the session log.
                    ctx.forward_upstream(msg)
                }
            }
            None => ctx.respond_err(&msg, errnum::ENOSYS),
        }
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.header.topic.as_str() != Event::LogFault.topic_str() {
            return;
        }
        // Fault: every broker dumps its debug ring to the root for
        // post-mortem context, regardless of forward level.
        if !ctx.is_root() && !self.ring.is_empty() {
            self.batch.contribute((), Batch(self.ring.iter().cloned().collect()));
            self.flush_batch(ctx);
        }
    }

    fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, _epoch: u64) {
        self.flush_batch(ctx);
    }
}
