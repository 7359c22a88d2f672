//! Sustained-RPC benchmark: pipelined socket clients against a broker.
//!
//! The load driver multiplexes many nonblocking client connections on
//! one OS thread. Each connection keeps a window of `cmb.ping` requests
//! in flight (matched back by [`ClientCore`]), so a window of 1 measures
//! strict request/response round trips while deeper windows measure the
//! pipelining the socket link's per-connection state machines exist to
//! serve.
//!
//! [`run_matrix`] produces the committed `BENCH_rpc.json`: wall-clock
//! cells (never byte-reproducible), so the harness in
//! `crates/bench/tests/rpc_harness.rs` pins *relations* — deep windows
//! above window 1, every RPC of the 4k-client point answered — not
//! absolute numbers. The head-to-head against the thread-per-link
//! architecture the reactor replaced is a frozen record
//! ([`frozen_architecture`]): that server no longer exists to re-run.

use flux_broker::client::{ClientCore, Delivery};
use flux_modules::standard_modules;
use flux_proto::CmbMethod;
use flux_rt::tcp::{connect_socket_client, TcpSession};
use flux_value::Value;
use flux_wire::frame::{write_frame_into, FrameDecoder, MAX_FRAME};
use flux_wire::Rank;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Schema tag stamped into the document; bump on layout changes.
pub const SCHEMA: &str = "flux-rpc-bench/v1";

/// One load configuration.
#[derive(Clone, Copy, Debug)]
pub struct RpcParams {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests in flight per connection.
    pub window: usize,
    /// Requests each connection completes before it is done.
    pub per_client: usize,
}

impl RpcParams {
    /// Total requests the run completes.
    pub fn total(&self) -> u64 {
        (self.clients * self.per_client) as u64
    }
}

/// Wall-clock results of one [`drive`] run.
#[derive(Clone, Debug)]
pub struct RpcReport {
    /// Requests completed (always `params.total()` on success).
    pub total_rpcs: u64,
    /// Wall time from first issue to last completion.
    pub elapsed_ns: u64,
    /// Completed requests per second.
    pub throughput_per_s: f64,
    /// Median request latency.
    pub p50_ns: u64,
    /// 99th-percentile request latency.
    pub p99_ns: u64,
    /// Worst observed request latency.
    pub max_ns: u64,
}

/// One multiplexed client connection's driver state.
struct Conn {
    stream: TcpStream,
    core: ClientCore,
    dec: FrameDecoder,
    out: Vec<u8>,
    sent: usize,
    issued: usize,
    done: usize,
    inflight: HashMap<u64, Instant>,
}

impl Conn {
    /// True once every request has been issued and answered.
    fn finished(&self, p: &RpcParams) -> bool {
        self.done >= p.per_client
    }
}

/// Connects `p.clients` sockets to `addr` and completes
/// `p.clients * p.per_client` pipelined `cmb.ping` RPCs, `p.window`
/// in flight per connection. Single driver thread: the bench host has
/// one core, so extra driver threads would only contend with the server.
///
/// # Errors
/// Fails if any connect fails or the run exceeds the 300s safety
/// deadline (a wedged server).
pub fn drive(addr: SocketAddr, p: &RpcParams) -> io::Result<RpcReport> {
    let topic = CmbMethod::Ping.topic();
    let mut conns = Vec::with_capacity(p.clients);
    for _ in 0..p.clients {
        let (stream, id) = connect_socket_client(addr, Duration::from_secs(30))?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            core: ClientCore::new(Rank(0), id),
            dec: FrameDecoder::new(),
            out: Vec::new(),
            sent: 0,
            issued: 0,
            done: 0,
            inflight: HashMap::new(),
        });
    }

    let mut scratch = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut lats: Vec<u64> = Vec::with_capacity(p.clients * p.per_client);
    let deadline = Instant::now() + Duration::from_secs(300);
    let start = Instant::now();
    let mut remaining = conns.len();

    while remaining > 0 {
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("rpc run wedged: {remaining} conns unfinished"),
            ));
        }
        let mut progressed = false;
        for conn in &mut conns {
            if conn.finished(p) {
                continue;
            }
            // Top up the window.
            while conn.issued < p.per_client && conn.inflight.len() < p.window {
                let tag = conn.issued as u64;
                let msg = conn.core.request(topic.clone(), Value::object(), tag);
                write_frame_into(&mut conn.out, &msg, MAX_FRAME, &mut scratch)?;
                conn.inflight.insert(tag, Instant::now());
                conn.issued += 1;
                progressed = true;
            }
            // Drain the write queue as far as the kernel allows.
            while conn.sent < conn.out.len() {
                match conn.stream.write(&conn.out[conn.sent..]) {
                    Ok(0) => {
                        return Err(io::Error::new(io::ErrorKind::WriteZero, "server closed"))
                    }
                    Ok(n) => {
                        conn.sent += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if conn.sent == conn.out.len() && !conn.out.is_empty() {
                conn.out.clear();
                conn.sent = 0;
            }
            // Harvest replies.
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server hung up mid-run",
                        ))
                    }
                    Ok(n) => {
                        conn.dec.feed(&buf[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            while let Some(msg) = conn.dec.next_message(MAX_FRAME)? {
                if let Delivery::Response { tag, .. } = conn.core.deliver(msg) {
                    if let Some(sent_at) = conn.inflight.remove(&tag) {
                        lats.push(sent_at.elapsed().as_nanos() as u64);
                        conn.done += 1;
                        progressed = true;
                        if conn.finished(p) {
                            remaining -= 1;
                            break;
                        }
                    }
                }
            }
        }
        if !progressed {
            // Every conn is waiting on the server; don't spin a shared
            // core the server needs.
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let elapsed = start.elapsed();

    lats.sort_unstable();
    let pct = |p: usize| lats[(lats.len() - 1) * p / 100];
    let total = lats.len() as u64;
    Ok(RpcReport {
        total_rpcs: total,
        elapsed_ns: elapsed.as_nanos() as u64,
        throughput_per_s: total as f64 / elapsed.as_secs_f64(),
        p50_ns: pct(50),
        p99_ns: pct(99),
        max_ns: *lats.last().expect("nonempty latency set"),
    })
}

/// Starts a one-broker [`TcpSession`], drives `p` against it, shuts the
/// session down, and returns the report.
///
/// # Errors
/// Propagates driver failures (connect errors, wedged runs).
pub fn run_cell(p: &RpcParams) -> io::Result<RpcReport> {
    let session = TcpSession::builder(1, 2, |_| standard_modules()).start();
    let report = drive(session.addrs()[0], p);
    session.shutdown();
    report
}

/// Renders one cell as its JSON object.
fn cell_json(name: &str, p: &RpcParams, r: &RpcReport) -> Value {
    Value::from_pairs([
        ("name", Value::from(name)),
        ("transport", Value::from("reactor")),
        ("deterministic", Value::from(false)),
        ("clients", Value::from(p.clients as i64)),
        ("window", Value::from(p.window as i64)),
        ("per_client", Value::from(p.per_client as i64)),
        ("total_rpcs", Value::from(r.total_rpcs as i64)),
        ("elapsed_ns", Value::from(r.elapsed_ns as i64)),
        ("throughput_rpc_per_s", Value::Float(r.throughput_per_s)),
        (
            "latency",
            Value::from_pairs([
                ("p50_ns", Value::from(r.p50_ns as i64)),
                ("p99_ns", Value::from(r.p99_ns as i64)),
                ("max_ns", Value::from(r.max_ns as i64)),
            ]),
        ),
    ])
}

/// The cell list, `(clients, window, per_client)`: the deep-window cell
/// first, its window-1 ablation second. The full matrix adds a 4k-client
/// scale point (4k × 2 sockets stays under the host's 20k fd ceiling);
/// smoke cells keep CI minutes-fast.
fn cells(smoke: bool) -> Vec<RpcParams> {
    let mk = |clients, window, per_client| RpcParams { clients, window, per_client };
    if smoke {
        vec![mk(64, 16, 32), mk(64, 1, 8)]
    } else {
        vec![mk(1024, 32, 50), mk(1024, 1, 10), mk(4096, 32, 32)]
    }
}

/// The PR-10 head-to-head (1024 clients, window 32, same driver, same
/// sans-io broker) of the reactor against the architecture it replaced:
/// two blocking OS threads per connection. That server is deleted, so
/// the measurement is a constant — emitted as recorded, never recomputed.
pub fn frozen_architecture() -> Value {
    Value::from_pairs([
        ("frozen", Value::from(true)),
        ("measured", Value::from("PR 10: reactor/1024c/w32 vs tcpthreads/1024c/w32")),
        ("reactor_rpc_per_s", Value::Float(334_884.371_228_953_5)),
        ("threadlink_rpc_per_s", Value::Float(75_268.768_786_072_16)),
        ("reactor_over_threadlink", Value::Float(4.449_180_936_926_936)),
    ])
}

/// Runs the cell matrix and returns the `BENCH_rpc.json` document.
///
/// # Panics
/// Panics if any cell's driver fails — a bench run against a wedged
/// server has no useful partial output.
pub fn run_matrix(smoke: bool) -> Value {
    let mut out = Vec::new();
    let mut tput = Vec::new();
    for p in cells(smoke) {
        let name = format!("reactor/{}c/w{}", p.clients, p.window);
        let r = run_cell(&p).unwrap_or_else(|e| panic!("cell {name} failed: {e}"));
        assert_eq!(r.total_rpcs, p.total(), "cell {name}: lost replies");
        out.push(cell_json(&name, &p, &r));
        tput.push(r.throughput_per_s);
    }
    Value::from_pairs([
        ("schema", Value::from(SCHEMA)),
        ("smoke", Value::from(smoke)),
        ("cells", Value::Array(out)),
        (
            "pipelining",
            Value::from_pairs([("speedup_deep_over_w1", Value::Float(tput[0] / tput[1]))]),
        ),
        ("architecture", frozen_architecture()),
    ])
}

/// Schema check shared by the harness test and the CI smoke: returns
/// human-readable problems, empty when the document is well-formed.
pub fn check_schema(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errs.push(format!("schema tag is not {SCHEMA:?}"));
    }
    let Some(cells) = doc.get("cells").and_then(Value::as_array) else {
        errs.push("no cells array".into());
        return errs;
    };
    for c in cells {
        let name = c.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
        for field in ["clients", "window", "per_client", "total_rpcs", "elapsed_ns"] {
            if c.get(field).and_then(Value::as_int).is_none_or(|v| v <= 0) {
                errs.push(format!("cell {name}: missing/nonpositive {field}"));
            }
        }
        if c.get("throughput_rpc_per_s").and_then(Value::as_float).is_none_or(|v| v <= 0.0) {
            errs.push(format!("cell {name}: missing/nonpositive throughput"));
        }
        let lat = c.get("latency");
        for field in ["p50_ns", "p99_ns", "max_ns"] {
            if lat.and_then(|l| l.get(field)).and_then(Value::as_int).is_none_or(|v| v <= 0) {
                errs.push(format!("cell {name}: missing/nonpositive latency.{field}"));
            }
        }
        let (c_n, w, pc, total) = (
            c.get("clients").and_then(Value::as_int).unwrap_or(0),
            c.get("window").and_then(Value::as_int).unwrap_or(0),
            c.get("per_client").and_then(Value::as_int).unwrap_or(0),
            c.get("total_rpcs").and_then(Value::as_int).unwrap_or(0),
        );
        if c_n * pc != total {
            errs.push(format!("cell {name}: total_rpcs != clients * per_client"));
        }
        if w > pc {
            errs.push(format!("cell {name}: window deeper than per_client"));
        }
    }
    errs
}
