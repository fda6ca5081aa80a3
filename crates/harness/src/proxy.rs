//! Frame-aware chaos proxy for the TCP data plane (`newtop-exp proxy`).
//!
//! The proxy sits between a dialing peer and its upstream: the dialer
//! is pointed at the proxy's listen address, and every connection is
//! tunneled to the real peer with seeded interference applied to the
//! **data direction** (dialer → upstream, the direction that carries
//! addressed frame records). The proxy understands the peer wire
//! format, so chaos acts on whole records, never on partial bytes:
//!
//! * **drop** — a record vanishes. The upstream sees a sequence gap,
//!   severs the connection, and the runtime's reconnect/resume path
//!   retransmits from the last cumulative ack;
//! * **delay** — a record is held for a bounded random time from its own
//!   arrival (never released before the record ahead of it, so order
//!   holds) while the proxy keeps reading behind it: added latency,
//!   stressing ω-null timers and batching;
//! * **reorder** — a record is held back and re-emitted after its
//!   successor. The upstream sees the successor's higher sequence
//!   first — a gap — so this too resolves through sever + resume;
//! * **partition** — for a configured window, established tunnels are
//!   severed and new ones refused, then the window heals.
//!
//! The ack direction (upstream → dialer) is pumped verbatim: acks are
//! cumulative, so interfering with them only changes how much the
//! sender retains, never correctness. Every interference mode resolves
//! to *delivery-exact* behavior by construction — the protocol checker
//! must stay green under any proxy schedule.

use crossbeam::channel::{bounded, Receiver, Sender};
use newtop_types::peer::{addressed_frame_into, PeerRecordDecoder, HELLO_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;

/// What to interfere with, and how hard.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Tunnels: connections accepted on `.0` are forwarded to `.1`.
    pub routes: Vec<(SocketAddr, SocketAddr)>,
    /// Seed for the interference schedule (deterministic per run).
    pub seed: u64,
    /// Percent of data records dropped outright (0–100).
    pub drop_pct: u8,
    /// Upper bound on the random per-record hold, in milliseconds. A
    /// record leaves at `max(previous release, arrival + hold)`: each
    /// hold counts from the record's own arrival, not from the release of
    /// the records queued ahead of it.
    pub delay_ms: u64,
    /// Percent of data records held back past their successor (0–100).
    pub reorder_pct: u8,
    /// Percent of data records emitted twice back-to-back (0–100). The
    /// upstream sees the same sequence again and must drop it by
    /// sequence — the receive path's dedup guarantee.
    pub dup_pct: u8,
    /// When (after proxy start) a partition window opens, if any.
    pub partition_at: Option<Duration>,
    /// How long the partition window lasts.
    pub partition_for: Duration,
    /// Bandwidth shaping: cap each tunnel's data direction at this many
    /// kilobytes per second with a token bucket (`None` = unshaped). A
    /// record over budget stalls the pump — and everything queued behind
    /// it — exactly like a saturated WAN uplink; acks stay unshaped, so
    /// only the data path congests.
    pub rate_kbps: Option<u64>,
}

impl ProxyConfig {
    /// A pass-through proxy for `routes` — no interference until the
    /// chaos knobs are raised.
    #[must_use]
    pub fn new(routes: Vec<(SocketAddr, SocketAddr)>) -> ProxyConfig {
        ProxyConfig {
            routes,
            seed: 0,
            drop_pct: 0,
            delay_ms: 0,
            reorder_pct: 0,
            dup_pct: 0,
            partition_at: None,
            partition_for: Duration::from_secs(2),
            rate_kbps: None,
        }
    }
}

/// A wall-clock token bucket shaping one tunnel's data direction.
///
/// Tokens are bytes; the bucket refills at the configured rate and holds
/// at most ~50 ms of it (floored at 8 KiB so one whole record always
/// fits). Paying for a record that overdraws the bucket sleeps off the
/// deficit, which stalls the pump — the back-pressure a real capped
/// uplink exerts.
struct Shaper {
    bytes_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl Shaper {
    fn new(kbps: u64) -> Shaper {
        #[allow(clippy::cast_precision_loss)]
        let rate = (kbps.max(1) * 1000) as f64;
        Shaper {
            bytes_per_sec: rate,
            burst: (rate / 20.0).max(8_192.0),
            tokens: (rate / 20.0).max(8_192.0),
            last: Instant::now(),
        }
    }

    fn pace(&mut self, len: usize) {
        #[allow(clippy::cast_precision_loss)]
        let cost = len as f64;
        let now = Instant::now();
        let refill = now.duration_since(self.last).as_secs_f64() * self.bytes_per_sec;
        self.tokens = (self.tokens + refill).min(self.burst);
        self.last = now;
        self.tokens -= cost;
        if self.tokens < 0.0 {
            std::thread::sleep(Duration::from_secs_f64(-self.tokens / self.bytes_per_sec));
        }
    }
}

/// A running proxy; dropping it without [`ProxyHandle::stop`] leaves
/// the threads running until process exit.
pub struct ProxyHandle {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Data records forwarded across all tunnels.
    pub forwarded: Arc<AtomicU64>,
    /// Data records deliberately dropped.
    pub dropped: Arc<AtomicU64>,
    /// Data records deliberately duplicated.
    pub duplicated: Arc<AtomicU64>,
}

impl ProxyHandle {
    /// Severs every tunnel and joins all proxy threads.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Shared interference tallies, one set per proxy.
#[derive(Clone, Default)]
struct Tallies {
    forwarded: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    duplicated: Arc<AtomicU64>,
}

/// Is `elapsed` inside the configured partition window?
fn partitioned(cfg: &ProxyConfig, started: Instant) -> bool {
    match cfg.partition_at {
        Some(at) => {
            let elapsed = started.elapsed();
            elapsed >= at && elapsed < at + cfg.partition_for
        }
        None => false,
    }
}

/// Binds every route and starts forwarding until [`ProxyHandle::stop`].
///
/// # Errors
///
/// A listen address that cannot be bound.
pub fn run_proxy(cfg: &ProxyConfig) -> std::io::Result<ProxyHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let tallies = Tallies::default();
    let mut threads = Vec::new();
    for (i, &(listen, upstream)) in cfg.routes.iter().enumerate() {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::clone(&stop);
        let cfg = cfg.clone();
        let tallies = tallies.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("newtop-proxy-{i}"))
                .spawn(move || {
                    route_main(
                        &listener, upstream, &cfg, i as u64, started, &stop, &tallies,
                    );
                })
                .expect("spawn proxy route"),
        );
    }
    Ok(ProxyHandle {
        stop,
        threads,
        forwarded: tallies.forwarded,
        dropped: tallies.dropped,
        duplicated: tallies.duplicated,
    })
}

/// Accept loop for one route; tunnels are severed and refused while a
/// partition window is open.
fn route_main(
    listener: &TcpListener,
    upstream: SocketAddr,
    cfg: &ProxyConfig,
    route_idx: u64,
    started: Instant,
    stop: &Arc<AtomicBool>,
    tallies: &Tallies,
) {
    let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut conn_idx = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((client, _)) => {
                if partitioned(cfg, started) {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                conn_idx += 1;
                // One deterministic schedule per (seed, route, conn):
                // reconnects after chaos-induced severs see fresh but
                // reproducible interference.
                let conn_seed = cfg
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(route_idx << 32 | conn_idx);
                let cfg = cfg.clone();
                let stop = Arc::clone(stop);
                let tallies = tallies.clone();
                let pump = std::thread::Builder::new()
                    .name("newtop-proxy-pump".into())
                    .spawn(move || {
                        tunnel(client, server, &cfg, conn_seed, started, &stop, &tallies);
                    })
                    .expect("spawn proxy pump");
                pumps.lock().expect("pump list").push(pump);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let pumps = std::mem::take(&mut *pumps.lock().expect("pump list"));
    for p in pumps {
        let _ = p.join();
    }
}

/// Reads exactly `want` bytes under the socket's read timeout, polling
/// the stop flag between chunks. `None` on EOF/error/stop.
fn read_exactly(mut stream: &TcpStream, want: usize, stop: &AtomicBool) -> Option<Vec<u8>> {
    let mut out = vec![0u8; want];
    let mut got = 0usize;
    while got < want {
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        match stream.read(&mut out[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return None,
        }
    }
    Some(out)
}

/// One accepted connection: hello verbatim, then the chaotic data pump
/// and the verbatim ack pump, until either side closes, a partition
/// opens, or the proxy stops.
fn tunnel(
    client: TcpStream,
    server: TcpStream,
    cfg: &ProxyConfig,
    conn_seed: u64,
    started: Instant,
    stop: &Arc<AtomicBool>,
    tallies: &Tallies,
) {
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    // Stop-flag polls only: records wake the reads as soon as they arrive.
    let _ = client.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = server.set_read_timeout(Some(Duration::from_millis(25)));
    // The dialer speaks first; its hello must arrive unmodified.
    let Some(hello) = read_exactly(&client, HELLO_LEN, stop) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    if (&server).write_all(&hello).is_err() {
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    // Ack direction: upstream → dialer, verbatim bytes.
    let reverse = {
        let (Ok(server_rd), Ok(client_wr)) = (server.try_clone(), client.try_clone()) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        };
        let stop = Arc::clone(stop);
        std::thread::Builder::new()
            .name("newtop-proxy-ack".into())
            .spawn(move || raw_pump(&server_rd, &client_wr, &stop))
            .expect("spawn ack pump")
    };
    chaos_pump(&client, &server, cfg, conn_seed, started, stop, tallies);
    // Sever both halves so the ack pump unblocks, then reap it.
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    let _ = reverse.join();
}

/// Copies bytes verbatim until EOF, error or stop.
fn raw_pump(mut rd: &TcpStream, mut wr: &TcpStream, stop: &AtomicBool) {
    let mut buf = [0u8; 16 * 1024];
    while !stop.load(Ordering::Relaxed) {
        match rd.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                if wr.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// The most records one tunnel holds for release, each with the instant
/// it may leave; a full queue stalls the reads, so a slow upstream pushes
/// back on the dialer.
const MAX_PENDING: usize = 4096;

/// The data direction: parse addressed records, apply the seeded
/// schedule, and re-encode survivors in emission order. A release thread
/// forwards each at its release time while this one reads on.
fn chaos_pump(
    client: &TcpStream,
    server: &TcpStream,
    cfg: &ProxyConfig,
    conn_seed: u64,
    started: Instant,
    stop: &AtomicBool,
    tallies: &Tallies,
) {
    std::thread::scope(|s| {
        let (tx, rx) = bounded(MAX_PENDING);
        s.spawn(move || release_pump(&rx, server, tallies));
        // Anything but a clean close severs the upstream at once, and
        // with it whatever is still waiting for release.
        if !schedule_records(client, &tx, cfg, conn_seed, started, stop, tallies) {
            let _ = server.shutdown(Shutdown::Both);
        }
    });
}

/// Reads records off the dialer and queues each survivor of the seeded
/// schedule at `max(previous release, arrival + hold)`, so a hold counts
/// from the record's own arrival and FIFO order holds. `true` on the
/// dialer's clean close, with the hold-back straggler queued too.
fn schedule_records(
    mut client: &TcpStream,
    tx: &Sender<(Instant, BytesMut)>,
    cfg: &ProxyConfig,
    conn_seed: u64,
    started: Instant,
    stop: &AtomicBool,
    tallies: &Tallies,
) -> bool {
    let mut rng = StdRng::seed_from_u64(conn_seed);
    let mut dec = PeerRecordDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut shaper = cfg.rate_kbps.map(Shaper::new);
    // At most one record rides in the hold-back slot; emitting it after
    // the next record is exactly one reordering.
    let mut held: Option<newtop_types::peer::PeerFrame> = None;
    let mut last_release = started;
    loop {
        if stop.load(Ordering::Relaxed) || partitioned(cfg, started) {
            return false;
        }
        let n = match client.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return false,
        };
        let arrival = Instant::now();
        dec.push(&buf[..n]);
        loop {
            let rec = match dec.next_record() {
                Ok(Some(rec)) => rec,
                Ok(None) => break,
                // A malformed stream cannot be re-framed; sever it.
                Err(_) => return false,
            };
            if cfg.drop_pct > 0 && rng.gen_range(0u32..100) < u32::from(cfg.drop_pct) {
                tallies.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if cfg.delay_ms > 0 {
                let hold = Duration::from_millis(rng.gen_range(0..=cfg.delay_ms));
                last_release = last_release.max(arrival + hold);
            }
            let mut emit = Vec::with_capacity(2);
            if cfg.reorder_pct > 0
                && held.is_none()
                && rng.gen_range(0u32..100) < u32::from(cfg.reorder_pct)
            {
                held = Some(rec);
            } else {
                emit.push(rec);
                if let Some(h) = held.take() {
                    emit.push(h);
                }
            }
            for rec in emit {
                // Duplication: the same encoded record twice back to
                // back. The upstream's per-link sequence dedup must
                // swallow the echo, so this is correctness-neutral by
                // construction — which is exactly what it tests.
                let copies = if cfg.dup_pct > 0 && rng.gen_range(0u32..100) < u32::from(cfg.dup_pct)
                {
                    tallies.duplicated.fetch_add(1, Ordering::Relaxed);
                    2
                } else {
                    1
                };
                let mut bytes = BytesMut::new();
                for _ in 0..copies {
                    addressed_frame_into(rec.dest, rec.seq, &rec.frame, &mut bytes);
                }
                // Shaping here stalls the reads, so an over-budget tunnel
                // pushes back on the dialer like a saturated uplink.
                if let Some(shaper) = &mut shaper {
                    shaper.pace(bytes.len());
                }
                if tx.send((last_release, bytes)).is_err() {
                    return false;
                }
            }
        }
    }
    // Client EOF: flush a straggler so a clean close loses nothing.
    let Some(rec) = held else {
        return true;
    };
    let mut bytes = BytesMut::new();
    addressed_frame_into(rec.dest, rec.seq, &rec.frame, &mut bytes);
    tx.send((last_release, bytes)).is_ok()
}

/// Forwards each queued record at its release time, until the queue
/// closes or the upstream is gone.
fn release_pump(rx: &Receiver<(Instant, BytesMut)>, mut server: &TcpStream, tallies: &Tallies) {
    while let Ok((release, bytes)) = rx.recv() {
        std::thread::sleep(release.saturating_duration_since(Instant::now()));
        if server.write_all(&bytes).is_err() {
            return;
        }
        tallies.forwarded.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_window_opens_and_heals() {
        let mut cfg = ProxyConfig::new(Vec::new());
        cfg.partition_at = Some(Duration::from_millis(100));
        cfg.partition_for = Duration::from_millis(50);
        let t0 = Instant::now();
        assert!(!partitioned(&cfg, t0), "before the window");
        let mid = t0 - Duration::from_millis(120);
        assert!(partitioned(&cfg, mid), "inside the window");
        let after = t0 - Duration::from_millis(200);
        assert!(!partitioned(&cfg, after), "after the window heals");
    }

    #[test]
    fn passthrough_config_has_no_interference() {
        let cfg = ProxyConfig::new(Vec::new());
        assert_eq!(cfg.drop_pct, 0);
        assert_eq!(cfg.delay_ms, 0);
        assert_eq!(cfg.reorder_pct, 0);
        assert_eq!(cfg.dup_pct, 0);
        assert!(cfg.partition_at.is_none());
    }

    /// The token bucket alone: a burst-sized prefix is free, every byte
    /// past it is paid for at the configured rate.
    #[test]
    fn shaper_paces_past_the_burst() {
        let mut shaper = Shaper::new(100); // 100 KB/s, burst 8 KiB
        let start = Instant::now();
        // 24 KiB through an 8 KiB burst: ≥ 16 KiB at 100 KB/s ≈ 160 ms.
        for _ in 0..6 {
            shaper.pace(4 * 1024);
        }
        assert!(start.elapsed() >= Duration::from_millis(140));
    }

    /// A proxy over one loopback route, configured by `tweak`: returns
    /// it, the dialer's connection (hello already sent), the upstream's
    /// accepted end, and the hello bytes the upstream sees first.
    fn open_tunnel(
        tweak: impl FnOnce(&mut ProxyConfig),
    ) -> (ProxyHandle, TcpStream, TcpStream, Vec<u8>) {
        use newtop_types::peer::{encode_hello, Hello};
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let up_addr = upstream.local_addr().expect("addr");
        let listen = TcpListener::bind("127.0.0.1:0").expect("probe listen");
        let listen_addr = listen.local_addr().expect("addr");
        drop(listen); // free the port for the proxy
        let mut cfg = ProxyConfig::new(vec![(listen_addr, up_addr)]);
        tweak(&mut cfg);
        let handle = run_proxy(&cfg).expect("proxy starts");
        let mut client = TcpStream::connect(listen_addr).expect("dial proxy");
        let (server, _) = upstream.accept().expect("accept tunnel");
        server
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let hello = encode_hello(&Hello {
            peer: 0,
            nonce: 7,
            resume: 0,
        });
        client.write_all(&hello).expect("hello");
        (handle, client, server, hello.to_vec())
    }

    /// Writes one addressed record per frame (sequence 1, 2, …) back to
    /// back, and returns the encoded records in order.
    fn write_records(client: &mut TcpStream, frames: usize, frame: &[u8]) -> Vec<u8> {
        use newtop_types::ProcessId;
        let mut sent = Vec::new();
        let mut rec = BytesMut::new();
        for seq in 1..=frames as u64 {
            rec.clear();
            addressed_frame_into(ProcessId(2), seq, frame, &mut rec);
            client.write_all(&rec).expect("record");
            sent.extend_from_slice(&rec);
        }
        client.flush().expect("flush");
        sent
    }

    /// A shaped tunnel delivers a multi-record stream intact but no
    /// faster than the configured rate: shaping changes timing, never
    /// bytes.
    #[test]
    fn rate_limited_tunnel_shapes_but_preserves_the_stream() {
        // 50 KB/s, burst 8 KiB.
        let (handle, mut client, mut server, mut want) =
            open_tunnel(|cfg| cfg.rate_kbps = Some(50));
        // ~18 KiB of records through an 8 KiB burst at 50 KB/s: the tail
        // ~10 KiB costs ≥ 200 ms of shaping.
        let mut frame = vec![0x80u8, 0x10]; // varint 2048
        frame.extend_from_slice(&[0x55u8; 2048]);
        let t0 = Instant::now();
        want.extend(write_records(&mut client, 9, &frame));
        let mut got = vec![0u8; want.len()];
        server.read_exact(&mut got).expect("shaped stream");
        assert!(
            t0.elapsed() >= Duration::from_millis(150),
            "9 records crossed a 50 KB/s shaper in {:?}",
            t0.elapsed()
        );
        assert_eq!(got, want, "shaping must never corrupt the stream");
        assert_eq!(handle.dropped.load(Ordering::Relaxed), 0);
        drop(client);
        drop(server);
        handle.stop();
    }

    /// Each record's hold counts from its own arrival: 20 records written
    /// back to back under holds of up to 50 ms all arrive, in order and
    /// byte-identical, about one maximal hold after the first. The bound
    /// is half the ~500 ms that 20 holds averaging 25 ms add up to when
    /// each hold also delays the records queued behind it.
    #[test]
    fn delay_holds_each_record_from_its_own_arrival() {
        let (handle, mut client, mut server, mut want) = open_tunnel(|cfg| cfg.delay_ms = 50);
        // Let the proxy take the hello before the clock starts.
        let mut got = vec![0u8; want.len()];
        server.read_exact(&mut got).expect("hello");
        assert_eq!(got, want, "hello passes verbatim");
        let t0 = Instant::now();
        want = write_records(&mut client, 20, &[3u8, b'x', b'y', b'z']);
        let mut got = vec![0u8; want.len()];
        server.read_exact(&mut got).expect("delayed stream");
        let took = t0.elapsed();
        assert_eq!(got, want, "delay must keep the stream's bytes and order");
        assert!(
            took < Duration::from_millis(250),
            "20 records under ≤ 50 ms holds took {took:?}"
        );
        drop(client);
        drop(server);
        handle.stop();
    }

    /// A dup-100 proxy emits every data record twice: the upstream
    /// byte stream is exactly two copies of each encoded record, and
    /// the duplicated counter matches the forwarded one.
    #[test]
    fn dup_mode_doubles_records_on_the_wire() {
        let (handle, mut client, mut server, mut want) = open_tunnel(|cfg| cfg.dup_pct = 100);
        // A minimal valid wire frame: varint body length, then body.
        let rec = write_records(&mut client, 1, &[3u8, b'x', b'y', b'z']);
        // Expect hello + two copies of the record at the upstream.
        want.extend_from_slice(&rec);
        want.extend_from_slice(&rec);
        let mut got = vec![0u8; want.len()];
        server.read_exact(&mut got).expect("doubled stream");
        assert_eq!(got, want, "record must arrive exactly twice");
        // The pump bumps the tallies around the socket writes; the bytes
        // can land here before the counters do, so poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.forwarded.load(Ordering::Relaxed) < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.duplicated.load(Ordering::Relaxed), 1);
        assert_eq!(handle.forwarded.load(Ordering::Relaxed), 1);
        drop(client);
        drop(server);
        handle.stop();
    }
}
