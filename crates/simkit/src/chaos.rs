//! Wire-level chaos: byte/line fault plans for a TCP stream and
//! an in-process fault-injecting proxy.
//!
//! Where [`fault`](crate::fault) perturbs the *simulated world* (sensor
//! noise, component outages), this module perturbs the *transport* a
//! live telemetry daemon ingests from: connections cut at arbitrary
//! byte offsets, stalled mid-line, writes fragmented into tiny chunks,
//! lines duplicated or garbled in flight. A [`ChaosPlan`] is the pure
//! data description of one such torture schedule, built in code by the
//! harness that runs it, and a [`FaultProxy`] is the in-process TCP
//! proxy that executes it between a client and an upstream server.
//!
//! # Determinism contract
//!
//! A plan is pure data: every offset, index and chunk size is fixed at
//! plan-build time. The proxy applies each fault **at most once per
//! proxy lifetime**: a `CutAt` severs the first connection that reaches
//! its byte offset, and the client's retry connection then passes
//! unharmed — which is what lets a reconnect-and-resume client make
//! progress under any plan.
//!
//! # Example
//!
//! ```
//! use simkit::chaos::{ChaosPlan, WireFault};
//!
//! let plan = ChaosPlan::new("smoke")
//!     .with(WireFault::CutAt { offset: 4096 })
//!     .with(WireFault::Chunk { max_bytes: 17 });
//! assert_eq!(plan.faults().len(), 2);
//! // A resuming client re-sends what a cut lost; a garbled line is gone.
//! assert!(plan.is_lossless());
//! assert!(!plan.with(WireFault::GarbleLine { index: 3 }).is_lossless());
//! ```

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// One transport-level fault in a [`ChaosPlan`].
///
/// Byte offsets count the client→upstream direction only (the reply
/// direction is never perturbed — a real flaky network hurts the bulk
/// data path, and perturbing acks would only retest the same client
/// code). Line indices count client→upstream `\n`-terminated lines,
/// starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Sever the connection (both directions) once `offset` bytes have
    /// been forwarded upstream.
    CutAt {
        /// Client→upstream byte offset of the cut.
        offset: u64,
    },
    /// Pause forwarding for `ms` wall-clock milliseconds once `offset`
    /// bytes have been forwarded.
    StallAt {
        /// Client→upstream byte offset of the stall.
        offset: u64,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Fragment every upstream write into chunks of at most
    /// `max_bytes` bytes (exercises partial-line reads). Unlike the
    /// one-shot faults this applies for the whole proxy lifetime.
    Chunk {
        /// Maximum bytes per upstream write.
        max_bytes: u64,
    },
    /// Forward the `index`-th client line twice.
    DuplicateLine {
        /// Zero-based client→upstream line index.
        index: u64,
    },
    /// Overwrite every byte of the `index`-th client line (except its
    /// terminating newline) with `#`, making it unparseable.
    GarbleLine {
        /// Zero-based client→upstream line index.
        index: u64,
    },
}

impl WireFault {
    /// `true` for faults that leave the forwarded byte stream
    /// semantically intact (an ingest protected by checkpoint/resume
    /// must produce byte-identical outputs under them).
    pub fn is_lossless(self) -> bool {
        !matches!(
            self,
            WireFault::DuplicateLine { .. } | WireFault::GarbleLine { .. }
        )
    }
}

/// A named schedule of [`WireFault`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    name: String,
    kill_at_line: Option<u64>,
    faults: Vec<WireFault>,
}

impl ChaosPlan {
    /// Creates an empty plan.
    pub fn new(name: impl Into<String>) -> Self {
        ChaosPlan {
            name: name.into(),
            kill_at_line: None,
            faults: Vec::new(),
        }
    }

    /// Appends a fault.
    pub fn with(mut self, fault: WireFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Schedules a harness-level daemon kill-and-restart once the
    /// client has durably sent `line` data lines. The proxy ignores
    /// this — it is executed by the chaos *runner*, which owns the
    /// daemon process.
    pub fn with_kill_at_line(mut self, line: u64) -> Self {
        self.kill_at_line = Some(line);
        self
    }

    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The harness-level kill point, if any.
    pub fn kill_at_line(&self) -> Option<u64> {
        self.kill_at_line
    }

    /// The scheduled faults, in schedule order.
    pub fn faults(&self) -> &[WireFault] {
        &self.faults
    }

    /// `true` when every fault [`is_lossless`](WireFault::is_lossless):
    /// a resuming client must reproduce byte-identical outputs.
    pub fn is_lossless(&self) -> bool {
        self.faults.iter().all(|f| f.is_lossless())
    }
}

/// Shared one-shot bookkeeping: which plan faults have already fired.
struct Armed {
    faults: Vec<WireFault>,
    fired: Vec<bool>,
}

/// An in-process fault-injecting TCP proxy.
///
/// Listens on an ephemeral loopback port and forwards each accepted
/// connection to `upstream`, applying a [`ChaosPlan`]'s faults to the
/// client→upstream byte stream (replies pass through untouched). Every
/// fault fires at most once per proxy lifetime, shared across
/// connections, so a reconnecting client always makes progress.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts the proxy in front of `upstream` with `plan`'s faults.
    ///
    /// # Errors
    ///
    /// Returns the bind error if no loopback port is available.
    pub fn start(upstream: SocketAddr, plan: &ChaosPlan) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let armed = Arc::new(Mutex::new(Armed {
            faults: plan.faults().to_vec(),
            fired: vec![false; plan.faults().len()],
        }));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            while !stop_accept.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let armed = Arc::clone(&armed);
                        workers.push(thread::spawn(move || {
                            let _ = pump_connection(client, upstream, &armed);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
                workers.retain(|h| !h.is_finished());
            }
            for h in workers {
                let _ = h.join();
            }
        });
        Ok(FaultProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address (point clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop. Existing connections
    /// finish on their own.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Forwards one client connection through the fault pipeline.
fn pump_connection(
    client: TcpStream,
    upstream: SocketAddr,
    armed: &Mutex<Armed>,
) -> std::io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    // Reply pump: upstream → client, untouched.
    let (mut reply_src, reply_dst) = (server.try_clone()?, client.try_clone()?);
    let replies = thread::spawn(move || {
        let mut dst = reply_dst;
        let mut buf = [0u8; 4096];
        loop {
            match reply_src.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if dst.write_all(&buf[..n]).is_err() {
                        break;
                    }
                    let _ = dst.flush();
                }
            }
        }
        let _ = dst.shutdown(Shutdown::Write);
    });

    let outcome = pump_data(&client, &server, armed);
    // A cut severs both directions immediately; a normal EOF half-closes
    // the upstream write side and lets replies drain.
    match outcome {
        Ok(true) => {
            let _ = server.shutdown(Shutdown::Both);
            let _ = client.shutdown(Shutdown::Both);
        }
        _ => {
            let _ = server.shutdown(Shutdown::Write);
        }
    }
    let _ = replies.join();
    Ok(())
}

/// Client → upstream pump with the fault pipeline. Returns `Ok(true)`
/// when a cut fault severed the connection, `Ok(false)` on client EOF.
fn pump_data(
    client: &TcpStream,
    server: &TcpStream,
    armed: &Mutex<Armed>,
) -> std::io::Result<bool> {
    let mut src = client.try_clone()?;
    let mut dst = server.try_clone()?;
    let mut buf = [0u8; 4096];
    let mut cur_line: Vec<u8> = Vec::new();
    let mut line_index: u64 = 0;
    let mut sent: u64 = 0;
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) => {
                // Flush any unterminated trailing bytes verbatim.
                let tail = std::mem::take(&mut cur_line);
                if !tail.is_empty() && emit(&mut dst, &tail, &mut sent, armed)? {
                    return Ok(true);
                }
                return Ok(false);
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Ok(false),
        };
        for &b in &buf[..n] {
            cur_line.push(b);
            if b != b'\n' {
                continue;
            }
            let mut line = std::mem::take(&mut cur_line);
            let mut copies = 1;
            {
                let mut armed = armed.lock().expect("chaos faults lock");
                let Armed { faults, fired } = &mut *armed;
                for (fault, fired) in faults.iter().zip(fired.iter_mut()) {
                    match *fault {
                        WireFault::GarbleLine { index } if index == line_index && !*fired => {
                            *fired = true;
                            let len = line.len() - 1;
                            line[..len].fill(b'#');
                        }
                        WireFault::DuplicateLine { index } if index == line_index && !*fired => {
                            *fired = true;
                            copies = 2;
                        }
                        _ => {}
                    }
                }
            }
            for _ in 0..copies {
                if emit(&mut dst, &line, &mut sent, armed)? {
                    return Ok(true);
                }
            }
            line_index += 1;
        }
    }
}

/// Writes `bytes` upstream, honouring chunking, stalls and cuts.
/// Returns `Ok(true)` when a cut fault fired inside this emission.
fn emit(
    dst: &mut TcpStream,
    bytes: &[u8],
    sent: &mut u64,
    armed: &Mutex<Armed>,
) -> std::io::Result<bool> {
    let mut pos = 0usize;
    while pos < bytes.len() {
        // Decide the largest safe write: stop at the nearest pending
        // cut/stall boundary and at the chunk ceiling.
        let mut limit = bytes.len() - pos;
        let mut stall: Option<Duration> = None;
        let mut cut_now = false;
        {
            let mut armed = armed.lock().expect("chaos faults lock");
            let Armed { faults, fired } = &mut *armed;
            for (fault, fired) in faults.iter().zip(fired.iter_mut()) {
                if *fired {
                    continue;
                }
                match *fault {
                    WireFault::Chunk { max_bytes } => {
                        limit = limit.min(max_bytes as usize);
                    }
                    WireFault::CutAt { offset } => {
                        if offset <= *sent {
                            *fired = true;
                            cut_now = true;
                        } else {
                            limit = limit.min((offset - *sent) as usize);
                        }
                    }
                    WireFault::StallAt { offset, ms } => {
                        if offset <= *sent {
                            *fired = true;
                            stall = Some(Duration::from_millis(ms));
                        } else {
                            limit = limit.min((offset - *sent) as usize);
                        }
                    }
                    _ => {}
                }
            }
        }
        if cut_now {
            return Ok(true);
        }
        if let Some(pause) = stall {
            thread::sleep(pause);
            continue;
        }
        let end = pos + limit.max(1);
        dst.write_all(&bytes[pos..end])?;
        dst.flush()?;
        *sent += (end - pos) as u64;
        pos = end;
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// Upstream that records everything it reads and echoes `done\n`
    /// when the client half-closes.
    fn sink_upstream() -> (SocketAddr, std::sync::mpsc::Receiver<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            while let Ok((mut conn, _)) = listener.accept() {
                let mut data = Vec::new();
                let _ = conn.read_to_end(&mut data);
                let _ = conn.write_all(b"done\n");
                let _ = conn.shutdown(Shutdown::Write);
                if tx.send(data).is_err() {
                    break;
                }
            }
        });
        (addr, rx)
    }

    #[test]
    fn clean_plan_forwards_bytes_and_replies_untouched() {
        let (upstream, rx) = sink_upstream();
        let proxy = FaultProxy::start(upstream, &ChaosPlan::new("clean")).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"alpha\nbeta\n").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let mut reply = String::new();
        std::io::BufReader::new(&mut client)
            .read_line(&mut reply)
            .unwrap();
        assert_eq!(reply, "done\n");
        assert_eq!(rx.recv().unwrap(), b"alpha\nbeta\n");
        proxy.stop();
    }

    #[test]
    fn garble_and_duplicate_target_exact_lines_once() {
        let (upstream, rx) = sink_upstream();
        let plan = ChaosPlan::new("lossy")
            .with(WireFault::GarbleLine { index: 1 })
            .with(WireFault::DuplicateLine { index: 2 });
        assert!(!plan.is_lossless());
        let proxy = FaultProxy::start(upstream, &plan).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"a\nbb\nccc\ndddd\n").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        assert_eq!(rx.recv().unwrap(), b"a\n##\nccc\nccc\ndddd\n");
        // A second connection is untouched: the faults already fired.
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"a\nbb\nccc\ndddd\n").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        assert_eq!(rx.recv().unwrap(), b"a\nbb\nccc\ndddd\n");
        proxy.stop();
    }

    #[test]
    fn cut_severs_at_the_exact_byte_offset_once() {
        let (upstream, rx) = sink_upstream();
        let plan = ChaosPlan::new("cut").with(WireFault::CutAt { offset: 4 });
        assert!(plan.is_lossless());
        let proxy = FaultProxy::start(upstream, &plan).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        // Writes may or may not error depending on timing; the upstream
        // view is what matters.
        let _ = client.write_all(b"abcdefgh\n");
        let _ = client.shutdown(Shutdown::Write);
        assert_eq!(rx.recv().unwrap(), b"abcd");
        drop(client);
        // Retry passes through whole.
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"abcdefgh\n").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        assert_eq!(rx.recv().unwrap(), b"abcdefgh\n");
        proxy.stop();
    }

    #[test]
    fn chunking_preserves_content() {
        let (upstream, rx) = sink_upstream();
        let plan = ChaosPlan::new("chunk").with(WireFault::Chunk { max_bytes: 3 });
        let proxy = FaultProxy::start(upstream, &plan).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let payload = b"the quick brown fox jumps over the lazy dog\n".repeat(20);
        client.write_all(&payload).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        assert_eq!(rx.recv().unwrap(), payload);
        proxy.stop();
    }
}
