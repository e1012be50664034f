//! The server process and the load generator.
//!
//! The server is this binary re-executed in `serve-child` mode: it
//! loads the model the parent trained from a model-zoo directory and
//! runs `qrec_serve::Server` with `ServerConfig::default()` (plus a data
//! directory on durable workloads) until it receives `SHUTDOWN`. The
//! load is one process of at most `nproc` threads, one connection per
//! thread, each session pinned to one connection.

use qrec_core::PerKind;
use qrec_perfbench::parity;
use qrec_perfbench::stats::{latency_from_due, lateness, Schedule};
use qrec_serve::{Client, FrameBuf, ModelZoo, Response, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use qrec_perfbench::setup::Stream;

/// Longest reply line the client accepts.
const MAX_REPLY_BYTES: usize = 1 << 20;
/// How long an open-loop connection waits for outstanding replies after
/// its last send before counting them as failed.
const DRAIN_S: f64 = 10.0;
/// How long the parent waits for the server to boot or to exit.
const CHILD_WAIT: Duration = Duration::from_secs(60);

/// Entry point of the `serve-child` mode:
/// `serve-child --model DIR [--data-dir DIR]`.
pub fn serve_child(args: &[String]) -> ExitCode {
    let mut model = None;
    let mut data_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--model", Some(v)) => model = Some(PathBuf::from(v)),
            ("--data-dir", Some(v)) => data_dir = Some(PathBuf::from(v)),
            _ => {
                eprintln!("serve-child: bad argument {flag:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(model) = model else {
        eprintln!("serve-child: --model is required");
        return ExitCode::FAILURE;
    };
    let rec = match ModelZoo::open(&model).and_then(|z| z.load_current()) {
        Ok(Some((_, rec))) => rec,
        Ok(None) => {
            eprintln!("serve-child: no model in {}", model.display());
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("serve-child: loading the model failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServerConfig {
        data_dir,
        ..ServerConfig::default()
    };
    let mut server = match Server::start(rec, "127.0.0.1:0", cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-child: start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("READY {}", server.local_addr());
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    server.wait_for_shutdown_request(None);
    server.shutdown();
    ExitCode::SUCCESS
}

/// A running server child. Dropping it kills the process if it is still
/// running and waits for it.
pub struct ServerProc {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start a server on the model saved under `model_dir`; returns once
    /// it has bound its port and printed `READY`.
    pub fn spawn(model_dir: &Path, data_dir: Option<&Path>) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve-child").arg("--model").arg(model_dir);
        if let Some(d) = data_dir {
            cmd.arg("--data-dir").arg(d);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().ok_or("server stdout missing")?;
        let mut proc = ServerProc {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        proc._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server banner: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("READY ")
            .ok_or_else(|| format!("server did not start (said {:?})", line.trim()))?;
        proc.addr = addr
            .parse()
            .map_err(|e| format!("bad server address {addr:?}: {e}"))?;
        Ok(proc)
    }

    /// A control connection.
    pub fn control(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("control connect: {e}"))
    }

    /// CPU seconds the server process has used.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        cpu_seconds(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Peak resident set (`VmHWM`) of the server process, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the server to stop and wait for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.control()?
            .shutdown_server()
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        let deadline = Instant::now() + CHILD_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => return Err("server did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// User plus system CPU seconds of a process, from `/proc/<pid>/stat`
/// (clock ticks of 1/100 s, the Linux default).
pub fn cpu_seconds(stat_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(stat_path).map_err(|e| format!("{stat_path}: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{stat_path}: unexpected format"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{stat_path}: no field {i}"))
    };
    // utime and stime are fields 14 and 15 of the full line, 11 and 12
    // after the command name.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// `VmHWM` from a `/proc/<pid>/status` file, MB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// `(seconds after start, latency in ms)` of every reply; latency
    /// runs from the send, or from the due time in the open loop.
    pub latencies_ms: Vec<(f64, f64)>,
    /// Open loop: how late each request was sent, ms.
    pub late_ms: Vec<f64>,
    /// RECOMMENDs written to the socket.
    pub sent: u64,
    /// Replies with `ok: true` (whatever their content).
    pub ok_replies: u64,
    /// Replies with `ok: false`, or that did not decode.
    pub error_replies: u64,
    /// `ok` replies that differ from an earlier reply for the same
    /// window on this connection.
    pub mismatched: u64,
    /// Requests that were due but never sent or never answered.
    pub unanswered: u64,
    /// `(seconds after start, request index)` of every send, in order.
    pub sends: Vec<(f64, u32)>,
    /// Requests answered with the window's first reply, in reply order.
    pub served: Vec<u32>,
    /// First `ok` reply per window, with how many replies were
    /// byte-identical to it (itself included).
    pub first_reply: HashMap<u32, (PerKind<Vec<String>>, u64)>,
    /// Seconds after start of the last reply.
    pub last_reply_s: f64,
}

impl ConnResult {
    /// Failed operations seen on the connection itself; mismatches
    /// against the offline answers are counted by the caller.
    pub fn failed(&self) -> u64 {
        self.error_replies + self.mismatched + self.unanswered
    }

    fn on_reply(&mut self, req: u32, window: u32, line: &[u8]) {
        let resp: Option<Response> = std::str::from_utf8(line)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok());
        let fragments = match resp {
            Some(Response {
                ok: true,
                fragments: Some(f),
                ..
            }) => f,
            _ => {
                self.error_replies += 1;
                return;
            }
        };
        self.ok_replies += 1;
        match self.first_reply.get_mut(&window) {
            Some((first, count)) => {
                if parity::compare(&fragments, first).is_some() {
                    self.mismatched += 1;
                    return;
                }
                *count += 1;
            }
            None => {
                self.first_reply.insert(window, (fragments, 1));
            }
        }
        self.served.push(req);
    }
}

/// One client connection with incremental reply framing.
pub struct Conn {
    sock: TcpStream,
    frames: FrameBuf,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        sock.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            sock,
            frames: FrameBuf::new(MAX_REPLY_BYTES),
            buf: vec![0; 64 * 1024],
        })
    }

    fn send(&mut self, line: &[u8]) -> Result<(), String> {
        self.sock.write_all(line).map_err(|e| format!("send: {e}"))
    }

    /// Wait up to `timeout` for bytes; returns the frames completed
    /// (possibly none), `Ok(None)` on a timeout, an error once the
    /// server closed.
    fn read_frames(&mut self, timeout: Duration) -> Result<Option<Vec<Vec<u8>>>, String> {
        self.sock
            .set_read_timeout(Some(timeout.max(Duration::from_micros(50))))
            .map_err(|e| format!("read timeout: {e}"))?;
        match self.sock.read(&mut self.buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.frames.feed(&self.buf[..n]);
                let mut out = Vec::new();
                while let Some(f) = self.frames.pop_frame().map_err(|e| e.to_string())? {
                    out.push(f);
                }
                Ok(Some(out))
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send one request and wait for its reply line.
    fn call(&mut self, line: &[u8]) -> Result<Vec<u8>, String> {
        self.send(line)?;
        loop {
            match self.read_frames(CHILD_WAIT)? {
                None => return Err("no reply within the read timeout".into()),
                Some(mut frames) => match frames.len() {
                    0 => continue,
                    1 => return Ok(frames.remove(0)),
                    n => return Err(format!("{n} replies to one request")),
                },
            }
        }
    }
}

/// The requests connection `conn` of `conns` replays: the sessions
/// whose index is `conn` modulo `conns`, each in query order.
pub fn plan(stream: &Stream, conn: usize, conns: usize) -> Vec<u32> {
    stream
        .sessions
        .iter()
        .skip(conn)
        .step_by(conns)
        .flat_map(|r| r.clone().map(|i| i as u32))
        .collect()
}

/// Send every request of `lines` once, in order, and require an `ok`
/// reply to each: the warm-up lap that fills the server's cache.
pub fn warm_up(addr: SocketAddr, lines: &[Vec<u8>]) -> Result<(), String> {
    let mut conn = Conn::open(addr)?;
    for line in lines {
        let reply = conn.call(line)?;
        let ok = std::str::from_utf8(&reply)
            .ok()
            .and_then(|s| serde_json::from_str::<Response>(s).ok())
            .is_some_and(|r| r.ok);
        if !ok {
            return Err(format!(
                "warm-up request failed: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
    }
    Ok(())
}

/// Replay `plan` closed-loop until `seconds` have passed, wrapping
/// around to its start if it runs out.
pub fn drive_closed(
    conn: &mut Conn,
    stream: &Stream,
    lines: &[Vec<u8>],
    plan: &[u32],
    t0: Instant,
    seconds: f64,
) -> Result<ConnResult, String> {
    let mut out = ConnResult::default();
    for &req in plan.iter().cycle() {
        let sent_s = t0.elapsed().as_secs_f64();
        if sent_s >= seconds {
            break;
        }
        out.sent += 1;
        out.sends.push((sent_s, req));
        let frame = conn.call(&lines[req as usize])?;
        let reply_s = t0.elapsed().as_secs_f64();
        out.on_reply(req, stream.requests[req as usize].window, &frame);
        out.latencies_ms.push((reply_s, (reply_s - sent_s) * 1e3));
        out.last_reply_s = reply_s;
    }
    Ok(out)
}

/// Replay `plans[c]` on connection `c`, open-loop on `sched`, for
/// `seconds`, then wait for the outstanding replies.
///
/// One thread sends every request at its due time, sleeping between
/// sends (a socket read timeout only wakes at scheduler-tick
/// granularity, which would make the generator itself late); the
/// calling thread reads the replies of all connections as they arrive.
pub fn drive_open(
    conns: &mut [Conn],
    stream: &Stream,
    lines: &[Vec<u8>],
    plans: &[Vec<u32>],
    sched: Schedule,
    t0: Instant,
    seconds: f64,
) -> Result<Vec<ConnResult>, String> {
    let orders: Vec<Vec<u32>> = plans
        .iter()
        .enumerate()
        .map(|(c, plan)| {
            let total = sched.requests_for(c, seconds);
            plan.iter().cycle().take(total).copied().collect()
        })
        .collect();
    let mut writers = conns
        .iter()
        .map(|c| c.sock.try_clone().map_err(|e| format!("clone socket: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let poller = polling::Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (c, conn) in conns.iter().enumerate() {
        poller
            .register(&conn.sock, polling::Token(c), polling::Interest::READABLE)
            .map_err(|e| format!("register: {e}"))?;
    }
    let mut results: Vec<ConnResult> = conns.iter().map(|_| ConnResult::default()).collect();
    // The sender fills in `sent`, `sends` and `late_ms`; the reader the
    // rest.
    let sender = |writers: &mut Vec<TcpStream>| -> Result<Vec<ConnResult>, String> {
        let mut sent: Vec<ConnResult> = orders.iter().map(|_| ConnResult::default()).collect();
        let longest = orders.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..longest {
            for (c, order) in orders.iter().enumerate() {
                let Some(&req) = order.get(k) else { continue };
                let due = sched.due_s(c, k);
                let now = t0.elapsed().as_secs_f64();
                if due > now {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let now = t0.elapsed().as_secs_f64();
                writers[c]
                    .write_all(&lines[req as usize])
                    .map_err(|e| format!("send: {e}"))?;
                sent[c].sent += 1;
                sent[c].late_ms.push(lateness(due, now) * 1e3);
                sent[c].sends.push((now, req));
            }
        }
        Ok(sent)
    };
    let mut next_reply = vec![0usize; conns.len()];
    let sent = std::thread::scope(|s| -> Result<_, String> {
        let handle = s.spawn(|| sender(&mut writers));
        let mut events = polling::Events::new();
        let drain_until = seconds + DRAIN_S;
        while next_reply.iter().zip(&orders).any(|(&n, o)| n < o.len())
            && t0.elapsed().as_secs_f64() < drain_until
        {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .map_err(|e| format!("poll: {e}"))?;
            for ev in events.iter() {
                let c = ev.token.0;
                // Readable: this read returns at once.
                let Some(frames) = conns[c].read_frames(CHILD_WAIT)? else {
                    continue;
                };
                let reply_s = t0.elapsed().as_secs_f64();
                for frame in frames {
                    let k = next_reply[c];
                    let Some(&req) = orders[c].get(k) else {
                        return Err("reply to a request that was not sent".into());
                    };
                    let out = &mut results[c];
                    out.on_reply(req, stream.requests[req as usize].window, &frame);
                    let latency = latency_from_due(sched.due_s(c, k), reply_s);
                    out.latencies_ms.push((reply_s, latency * 1e3));
                    out.last_reply_s = reply_s;
                    next_reply[c] += 1;
                }
            }
        }
        handle
            .join()
            .unwrap_or_else(|_| Err("sender thread panicked".into()))
    })?;
    for (c, (out, sender_side)) in results.iter_mut().zip(sent).enumerate() {
        out.sent = sender_side.sent;
        out.late_ms = sender_side.late_ms;
        out.sends = sender_side.sends;
        out.unanswered = (orders[c].len() - next_reply[c]) as u64;
    }
    Ok(results)
}
