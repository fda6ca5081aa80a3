//! Real-network peer links for
//! [`Cluster::start_tcp`](crate::Cluster::start_tcp).
//!
//! A TCP cluster is a set of OS processes (*peers*), each hosting a
//! subset of the protocol participants on its own sharded event loop.
//! There is one router either way: [`start`] attaches a link per remote
//! peer to it, so frames for locally hosted destinations take the exact
//! in-process path while frames for remote destinations are wrapped in
//! addressed records ([`newtop_types::peer`]) and written to the owning
//! peer's connection. The frame bytes themselves are bit-identical to
//! the in-process wire path — batching and byte accounting happen before
//! the route split, in the shard's egress.
//!
//! # Connection management
//!
//! Every peer dials every other peer once (one outbound link per
//! remote peer, frames out / acks in) and accepts inbound connections
//! on its listen address (frames in / acks out). A lost connection is
//! redialed with exponential backoff (`DIAL_BACKOFF` doubling up to
//! `DIAL_BACKOFF_MAX`); while a peer is unreachable, up to
//! [`TcpConfig::dead_cap`] frames buffer on the link and the overflow
//! is dropped **before sequencing** (counted as
//! [`WireStats::dropped_dead`](crate::WireStats::dropped_dead)), so a
//! recovered link never faces a permanent sequence gap.
//!
//! # Reliability
//!
//! The engine requires a transport that is reliable and FIFO per
//! ordered pair (§3 of the paper); a reconnecting socket alone is not
//! that, so every link runs the `newtop_types::peer` session protocol:
//! frames carry per-link sequence numbers, the receiver acknowledges
//! cumulatively, the sender retains unacknowledged records and
//! retransmits them after the handshake of a reconnect (the acceptor's
//! [`Hello::resume`] names the next sequence it expects), duplicates
//! are dropped by sequence, and a sequence *gap* — only possible if
//! something in the middle discarded bytes, e.g. a chaos proxy — makes
//! the receiver sever the connection so the dialer's retransmission
//! closes the hole. A record for a hosted node whose frame does not
//! decode is malformed input and severs the same way, before its
//! sequence is consumed. Session nonces distinguish a restarted peer
//! from a resumed link: the acceptor retires a peer's previous nonce
//! when a new incarnation handshakes and rejects hellos bearing retired
//! nonces, and a dialer severs on a resume point beyond anything it
//! ever sent (receive state from a colliding nonce) rather than
//! letting the link blackhole.

use crate::transport::{Frame, Router};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use newtop_types::peer::{
    addressed_frame_into, decode_ack, decode_hello, encode_ack, encode_hello, Hello,
    PeerRecordDecoder, ACK_LEN, HELLO_LEN,
};
use newtop_types::{wire, ProcessId};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Topology and link policy for one peer of a TCP cluster.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Listen addresses of every peer, in cluster-wide order. All peers
    /// must agree on this list; a peer's index in it is its identity.
    pub peers: Vec<SocketAddr>,
    /// This peer's index into [`TcpConfig::peers`] (its address is
    /// bound locally; every other address is dialed).
    pub me: usize,
    /// Which peer index owns each protocol participant, for the whole
    /// cluster. Processes hosted locally may be listed or omitted —
    /// local routing always wins.
    pub owners: Vec<(ProcessId, u32)>,
    /// How many frames may buffer for an unreachable peer before new
    /// ones are dropped
    /// ([`WireStats::dropped_dead`](crate::WireStats::dropped_dead)).
    /// Default 8192.
    pub dead_cap: u64,
    /// How long to retry binding the listen address before giving up.
    /// A process restarted in place (crash recovery) can find its old
    /// incarnation's accepted sockets still in TIME_WAIT; retrying
    /// rides out the window. Default zero: fail on the first error.
    pub bind_retry: Duration,
}

impl TcpConfig {
    /// A config with default link policy.
    #[must_use]
    pub fn new(peers: Vec<SocketAddr>, me: usize, owners: Vec<(ProcessId, u32)>) -> TcpConfig {
        TcpConfig {
            peers,
            me,
            owners,
            dead_cap: 8192,
            bind_retry: Duration::ZERO,
        }
    }
}

/// Link counters of a TCP host, read back through the router's
/// [`WireStats`](crate::WireStats); all zero in-process.
#[derive(Default)]
pub(crate) struct LinkCounters {
    pub(crate) reconnects: AtomicU64,
    pub(crate) dropped_dead: AtomicU64,
    pub(crate) handshake_rejects: AtomicU64,
}

/// One outbound peer link: the egress side of a connection manager.
/// `queued` counts frames in the channel plus unacknowledged records at
/// the writer — together the link's buffered backlog, capped at
/// `cap` while the peer is unreachable.
pub(crate) struct PeerLink {
    tx: Sender<Frame>,
    queued: AtomicU64,
    cap: u64,
}

impl PeerLink {
    /// Reserves backlog room for one frame; `false` = backlog full, so
    /// the frame is to be dropped *before* it is ever sequenced.
    pub(crate) fn reserve(&self) -> bool {
        if self.queued.load(Ordering::Relaxed) >= self.cap {
            return false;
        }
        self.queued.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Hands one frame, whose room [`PeerLink::reserve`] took, to the
    /// writer thread.
    pub(crate) fn send(&self, frame: Frame) {
        let _ = self.tx.send(frame);
    }
}

/// Per-link receive state: the next sequence expected from one
/// `(peer, nonce)` session. The mutex serialises the
/// check–deliver–advance step so that, during the brief overlap of a
/// dying connection and its replacement, a sequence is applied exactly
/// once and frames reach the shard inbox in sequence order.
type LinkState = Arc<Mutex<u64>>;

/// Shared context of the accept loop and its per-connection ingress
/// threads.
struct Acceptor {
    me: u32,
    npeers: u32,
    stop: Arc<AtomicBool>,
    nonce: u64,
    router: Arc<Router>,
    sessions: Mutex<HashMap<u32, PeerSession>>,
    ingress: Mutex<Vec<JoinHandle<()>>>,
}

impl Acceptor {
    /// Counts an inbound connection rejected at the handshake.
    fn reject(&self) {
        let counters = self.router.link_counters();
        counters.handshake_rejects.fetch_add(1, Ordering::Relaxed);
    }
}

/// Incarnation bookkeeping for one dialing peer index: the nonce of its
/// newest incarnation with that session's receive state, and every nonce
/// that incarnation superseded. A hello bearing a retired nonce is a
/// connection from a dead incarnation (e.g. a delayed dial that raced a
/// crash-restart) — its records belong to engine state that no longer
/// exists, so it is rejected at the handshake instead of being resumed,
/// and its receive state is dropped when it is retired.
#[derive(Default)]
struct PeerSession {
    current: Option<(u64, LinkState)>,
    retired: std::collections::HashSet<u64>,
}

/// The link threads of a TCP host: per-peer writers, the accept loop,
/// and one ingress thread per live inbound connection.
pub(crate) struct NetRuntime {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    acceptor: Arc<Acceptor>,
    /// Where to dial to wake the accept loop's blocking `accept`.
    listener: SocketAddr,
}

impl NetRuntime {
    /// Raises the stop flag and, the first time, dials the listener once
    /// so the accept loop returns from its blocking `accept` and sees it.
    fn raise_stop(&self) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            let _ = TcpStream::connect_timeout(&self.listener, Duration::from_secs(1));
        }
    }

    /// Signals every link thread to exit and joins them all.
    pub(crate) fn stop(mut self) {
        self.raise_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let handles: Vec<JoinHandle<()>> = self.acceptor.ingress.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for NetRuntime {
    /// Dropping without [`NetRuntime::stop`] still signals the threads
    /// to exit (detached: the accept loop is woken, every other loop
    /// polls the flag within ~50 ms).
    fn drop(&mut self) {
        self.raise_stop();
    }
}

fn session_nonce() -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    #[allow(clippy::cast_possible_truncation)]
    let nanos = t.as_nanos() as u64;
    nanos ^ (u64::from(std::process::id()) << 32)
}

/// Binds this peer's listener, spawns the per-peer writer threads and
/// the accept loop, attaches the links to `router`, and returns it
/// shared, plus the thread runtime.
pub(crate) fn start(
    cfg: TcpConfig,
    mut router: Router,
) -> std::io::Result<(Arc<Router>, NetRuntime)> {
    if cfg.me >= cfg.peers.len() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!(
                "peer index {} out of range ({} peers)",
                cfg.me,
                cfg.peers.len()
            ),
        ));
    }
    #[allow(clippy::cast_possible_truncation)]
    let me = cfg.me as u32;
    let counters = Arc::new(LinkCounters::default());
    let stop = Arc::new(AtomicBool::new(false));
    let nonce = session_nonce();
    let bind_deadline = std::time::Instant::now() + cfg.bind_retry;
    let listener = loop {
        match TcpListener::bind(cfg.peers[cfg.me]) {
            Ok(l) => break l,
            Err(e) => {
                if std::time::Instant::now() >= bind_deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    let mut listener_addr = listener.local_addr()?;
    if listener_addr.ip().is_unspecified() {
        listener_addr.set_ip(match listener_addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let mut threads = Vec::new();
    let mut links: Vec<Option<Arc<PeerLink>>> = (0..cfg.peers.len()).map(|_| None).collect();
    for (k, &addr) in cfg.peers.iter().enumerate() {
        if k == cfg.me {
            continue;
        }
        let (tx, rx) = unbounded();
        let link = Arc::new(PeerLink {
            tx,
            queued: AtomicU64::new(0),
            cap: cfg.dead_cap,
        });
        links[k] = Some(Arc::clone(&link));
        #[allow(clippy::cast_possible_truncation)]
        let writer = WriterCfg {
            peer: k as u32,
            addr,
            me,
            nonce,
        };
        let counters = Arc::clone(&counters);
        let stop = Arc::clone(&stop);
        threads.push(
            std::thread::Builder::new()
                .name(format!("newtop-link-{k}"))
                .spawn(move || writer_main(&writer, &rx, &link, &counters, &stop))
                .expect("spawn link writer"),
        );
    }
    router.attach_links(&cfg.owners, links, counters);
    let router = Arc::new(router);
    #[allow(clippy::cast_possible_truncation)]
    let acceptor = Arc::new(Acceptor {
        me,
        npeers: cfg.peers.len() as u32,
        stop: Arc::clone(&stop),
        nonce,
        router: Arc::clone(&router),
        sessions: Mutex::new(HashMap::new()),
        ingress: Mutex::new(Vec::new()),
    });
    {
        let acceptor = Arc::clone(&acceptor);
        threads.push(
            std::thread::Builder::new()
                .name("newtop-accept".into())
                .spawn(move || accept_main(&acceptor, &listener))
                .expect("spawn accept loop"),
        );
    }
    Ok((
        router,
        NetRuntime {
            stop,
            threads,
            acceptor,
            listener: listener_addr,
        },
    ))
}

// ---------------------------------------------------------------------
// Outbound: per-peer writer threads (dial, handshake, send, acks).
// ---------------------------------------------------------------------

struct WriterCfg {
    peer: u32,
    addr: SocketAddr,
    me: u32,
    nonce: u64,
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Applies deterministic ±25% jitter to a backoff delay, advancing the
/// xorshift state `rng`. Peers that lost a common peer at the same
/// instant would otherwise redial in lockstep, hammering the restarted
/// listener in synchronized waves; the spread stays within
/// `[3/4·base, 5/4·base)` so backoff analysis still holds.
fn jittered(base: Duration, rng: &mut u64) -> Duration {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let span = u64::try_from(base.as_nanos() / 2).unwrap_or(u64::MAX);
    let offset = if span == 0 { 0 } else { *rng % span };
    base.mul_f64(0.75) + Duration::from_nanos(offset)
}

/// Sleeps `total` in short slices so a stop request is honoured quickly.
fn backoff_sleep(total: Duration, stop: &AtomicBool) {
    let mut left = total;
    while left > Duration::ZERO && !stop.load(Ordering::Relaxed) {
        let step = left.min(Duration::from_millis(25));
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

/// Dials, handshakes, prunes the retransmission queue per the
/// acceptor's resume point, and retransmits what remains.
///
/// A reply nonce different from the previous connection's means the
/// peer process restarted: its receive state — and the engine state the
/// retained backlog was addressed to — died with the old incarnation.
/// The backlog is voided and the link's sequence space restarts at 1,
/// so the fresh acceptor (which expects sequence 1) accepts the link
/// instead of severing on a gap forever.
fn dial(
    cfg: &WriterCfg,
    unacked: &mut VecDeque<(u64, Bytes)>,
    next_seq: &mut u64,
    peer_nonce: &mut Option<u64>,
    link: &PeerLink,
) -> Option<TcpStream> {
    let stream = TcpStream::connect_timeout(&cfg.addr, Duration::from_millis(500)).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let hello = encode_hello(&Hello {
        peer: cfg.me,
        nonce: cfg.nonce,
        resume: 0,
    });
    (&stream).write_all(&hello).ok()?;
    let mut reply = [0u8; HELLO_LEN];
    (&stream).read_exact(&mut reply).ok()?;
    let reply = decode_hello(&reply).ok()?;
    if reply.peer != cfg.peer {
        return None; // dialed the wrong process (stale address)
    }
    if peer_nonce
        .replace(reply.nonce)
        .is_some_and(|old| old != reply.nonce)
    {
        #[allow(clippy::cast_possible_truncation)]
        let voided = unacked.len() as u64;
        link.queued.fetch_sub(voided, Ordering::Relaxed);
        unacked.clear();
        *next_seq = 1;
    }
    if reply.resume > *next_seq {
        // The acceptor claims to have consumed sequences we never sent
        // — receive state from a colliding nonce or a corrupted peer.
        // No resume point can be correct, and writing on (new records
        // would sit below its expected sequence and be dropped as
        // duplicates) turns the link into a silent blackhole. Sever
        // and redial instead: the failure stays visible as a link that
        // never comes up, with frames counted at the dead-peer cap.
        return None;
    }
    while unacked.front().is_some_and(|&(s, _)| s < reply.resume) {
        unacked.pop_front();
        link.queued.fetch_sub(1, Ordering::Relaxed);
    }
    for (_, rec) in unacked.iter() {
        (&stream).write_all(rec).ok()?;
    }
    Some(stream)
}

/// The most frames one burst takes off a link's queue.
const MAX_BURST: usize = 512;

/// First reconnect delay after a connection loss (doubles per failure).
const DIAL_BACKOFF: Duration = Duration::from_millis(20);

/// Reconnect delay ceiling.
const DIAL_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Sequences `first` and the frames already queued behind it (at most
/// [`MAX_BURST`] in all) into addressed records, retains each record for
/// retransmission, and hands the whole burst to the kernel with one
/// write. `false` = connection lost; the records stay retained for the
/// redial.
fn write_burst(
    mut stream: &TcpStream,
    first: Frame,
    rx: &Receiver<Frame>,
    next_seq: &mut u64,
    unacked: &mut VecDeque<(u64, Bytes)>,
    scratch: &mut BytesMut,
) -> bool {
    scratch.clear();
    let mut ends = Vec::new();
    let mut next = Some(first);
    while let Some(frame) = next {
        let seq = *next_seq + ends.len() as u64;
        addressed_frame_into(frame.to, seq, &frame.bytes, scratch);
        ends.push(scratch.len());
        next = if ends.len() < MAX_BURST {
            rx.try_recv().ok()
        } else {
            None
        };
    }
    let burst = Bytes::copy_from_slice(scratch);
    let mut start = 0;
    for end in ends {
        unacked.push_back((*next_seq, burst.slice(start..end)));
        *next_seq += 1;
        start = end;
    }
    stream.write_all(&burst).is_ok()
}

/// Drains whatever acks have already arrived, pruning the
/// retransmission queue, and returns at once when none are buffered.
/// `false` = connection lost.
///
/// The read must not block, not even briefly: Linux rounds socket
/// timeouts (`SO_RCVTIMEO`) up to whole kernel ticks, so even a "1 ms"
/// read timeout holds the writer for ticks (~8 ms measured at
/// `HZ=250`) while the peer's frames queue behind it. The socket is
/// switched to non-blocking for the drain only; writes stay blocking
/// under their send timeout.
fn poll_acks(
    mut stream: &TcpStream,
    pend: &mut Vec<u8>,
    unacked: &mut VecDeque<(u64, Bytes)>,
    link: &PeerLink,
) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut buf = [0u8; 512];
    let alive = loop {
        match stream.read(&mut buf) {
            Ok(0) => break false, // acceptor severed (gap) or exited
            Ok(n) => pend.extend_from_slice(&buf[..n]),
            Err(e) if would_block(&e) => break true,
            Err(_) => break false,
        }
    };
    if !alive || stream.set_nonblocking(false).is_err() {
        return false;
    }
    while pend.len() >= ACK_LEN {
        let mut raw = [0u8; ACK_LEN];
        raw.copy_from_slice(&pend[..ACK_LEN]);
        pend.drain(..ACK_LEN);
        let ack = decode_ack(raw);
        while unacked.front().is_some_and(|&(s, _)| s < ack) {
            unacked.pop_front();
            link.queued.fetch_sub(1, Ordering::Relaxed);
        }
    }
    true
}

fn writer_main(
    cfg: &WriterCfg,
    rx: &Receiver<Frame>,
    link: &PeerLink,
    counters: &LinkCounters,
    stop: &AtomicBool,
) {
    let mut unacked: VecDeque<(u64, Bytes)> = VecDeque::new();
    let mut next_seq: u64 = 1;
    let mut peer_nonce: Option<u64> = None;
    let mut conn: Option<TcpStream> = None;
    let mut backoff = DIAL_BACKOFF;
    let mut rng = cfg.nonce ^ (u64::from(cfg.peer) << 17) ^ u64::from(cfg.me) | 1;
    let mut connected_before = false;
    let mut ackpend: Vec<u8> = Vec::new();
    let mut scratch = BytesMut::new();
    while !stop.load(Ordering::Relaxed) {
        if conn.is_none() {
            match dial(cfg, &mut unacked, &mut next_seq, &mut peer_nonce, link) {
                Some(stream) => {
                    if connected_before {
                        counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    connected_before = true;
                    backoff = DIAL_BACKOFF;
                    ackpend.clear();
                    conn = Some(stream);
                }
                None => {
                    backoff_sleep(jittered(backoff, &mut rng), stop);
                    backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
                    continue;
                }
            }
        }
        let stream = conn.as_ref().expect("ensured above");
        let mut io_ok = true;
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(frame) => {
                io_ok = write_burst(stream, frame, rx, &mut next_seq, &mut unacked, &mut scratch);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return, // router gone
        }
        if io_ok {
            io_ok = poll_acks(stream, &mut ackpend, &mut unacked, link);
        }
        if !io_ok {
            conn = None; // dropping the stream closes it; redial next turn
        }
    }
}

// ---------------------------------------------------------------------
// Inbound: accept loop + per-connection ingress threads.
// ---------------------------------------------------------------------

/// Blocking accept loop; [`NetRuntime`] wakes it on stop by dialling
/// the listener once.
fn accept_main(ctx: &Arc<Acceptor>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok(_) if ctx.stop.load(Ordering::Relaxed) => return,
            Ok((stream, _)) => accept_conn(ctx, stream),
            // A transient failure (say, out of descriptors): back off.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn accept_conn(ctx: &Arc<Acceptor>, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut raw = [0u8; HELLO_LEN];
    let hello = (&stream)
        .read_exact(&mut raw)
        .ok()
        .and_then(|()| decode_hello(&raw).ok());
    let Some(hello) = hello.filter(|h| h.peer < ctx.npeers && h.peer != ctx.me) else {
        return ctx.reject();
    };
    let state = {
        let mut sessions = ctx.sessions.lock();
        let slot = sessions.entry(hello.peer).or_default();
        match &slot.current {
            Some((nonce, state)) if *nonce == hello.nonce => Arc::clone(state),
            _ if slot.retired.contains(&hello.nonce) => return ctx.reject(),
            _ => {
                let state: LinkState = Arc::new(Mutex::new(1));
                if let Some((old, _)) = slot.current.replace((hello.nonce, Arc::clone(&state))) {
                    slot.retired.insert(old);
                }
                state
            }
        }
    };
    let resume = *state.lock();
    let reply = encode_hello(&Hello {
        peer: ctx.me,
        nonce: ctx.nonce,
        resume,
    });
    if (&stream).write_all(&reply).is_err() {
        return;
    }
    // Not on the latency path: a read returns as soon as data arrives;
    // the timeout only bounds how long a quiet link goes without
    // polling the stop flag and flushing a trickle's ack.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let ctx2 = Arc::clone(ctx);
    let handle = std::thread::Builder::new()
        .name(format!("newtop-ingress-{}", hello.peer))
        .spawn(move || ingress_main(&ctx2, &stream, &state))
        .expect("spawn ingress thread");
    ctx.ingress.lock().push(handle);
}

fn ingress_main(ctx: &Acceptor, mut stream: &TcpStream, state: &Mutex<u64>) {
    let mut dec = PeerRecordDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut last_acked: u64 = 0;
    let ack_stream = stream;
    let send_ack = move |last_acked: &mut u64| -> bool {
        let v = *state.lock();
        if v == *last_acked {
            return true;
        }
        let mut w = ack_stream;
        if w.write_all(&encode_ack(v)).is_err() {
            return false;
        }
        *last_acked = v;
        true
    };
    'conn: while !ctx.stop.load(Ordering::Relaxed) {
        match stream.read(&mut buf) {
            Ok(0) => break, // dialer closed
            Ok(n) => {
                dec.push(&buf[..n]);
                loop {
                    match dec.next_record() {
                        Ok(Some(rec)) => {
                            let mut exp = state.lock();
                            if rec.seq < *exp {
                                continue; // duplicate of a resumed link
                            }
                            if rec.seq > *exp {
                                // A gap can only mean lost records (a
                                // proxy dropped frames): sever so the
                                // dialer reconnects and retransmits.
                                break 'conn;
                            }
                            if let Some(shard) = ctx.router.shard_of(rec.dest) {
                                // A frame that does not decode is
                                // malformed input: sever before its
                                // sequence is consumed, as on a gap.
                                if wire::unframe_each(rec.frame.clone(), drop).is_err() {
                                    break 'conn;
                                }
                                ctx.router.ingress(shard, rec.dest, rec.frame);
                            }
                            *exp += 1;
                        }
                        Ok(None) => break,
                        Err(_) => break 'conn, // malformed stream: sever
                    }
                }
                // Cumulative ack once enough arrived (the read-timeout
                // arm below covers trickles).
                if *state.lock() - last_acked >= 32 && !send_ack(&mut last_acked) {
                    break;
                }
            }
            Err(e) if would_block(&e) => {
                if !send_ack(&mut last_acked) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // Best-effort final ack so a graceful close loses nothing.
    let _ = send_ack(&mut last_acked);
}

#[cfg(test)]
mod tests {
    use super::{jittered, poll_acks, PeerLink};
    use bytes::Bytes;
    use crossbeam::channel::unbounded;
    use newtop_types::peer::encode_ack;
    use std::collections::VecDeque;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// A connected loopback pair: (dialer side, acceptor side).
    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let dialer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (acceptor, _) = listener.accept().expect("accept");
        (dialer, acceptor)
    }

    /// The ack drain returns at once when nothing is buffered, even on
    /// a socket that carries the handshake's long read timeout. A
    /// timed read could never do this: socket timeouts round up to a
    /// kernel tick (≥ 1 ms at any `HZ`).
    #[test]
    fn ack_drain_does_not_wait_when_no_ack_is_buffered() {
        let (dialer, _acceptor) = loopback_pair();
        dialer
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let (tx, _rx) = unbounded();
        let link = PeerLink {
            tx,
            queued: AtomicU64::new(0),
            cap: 8,
        };
        let mut pend = Vec::new();
        let mut unacked = VecDeque::new();
        let fastest = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                assert!(poll_acks(&dialer, &mut pend, &mut unacked, &link));
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(fastest < Duration::from_millis(1), "drain took {fastest:?}");
        assert!(pend.is_empty());
    }

    /// A buffered cumulative ack prunes exactly the records below it and
    /// releases their backlog count; the socket stays usable afterwards.
    #[test]
    fn ack_drain_prunes_acknowledged_records() {
        let (dialer, mut acceptor) = loopback_pair();
        let (tx, _rx) = unbounded();
        let link = PeerLink {
            tx,
            queued: AtomicU64::new(10),
            cap: 64,
        };
        let mut pend = Vec::new();
        let mut unacked: VecDeque<(u64, Bytes)> =
            (1..=10).map(|s| (s, Bytes::from_static(b"r"))).collect();
        acceptor.write_all(&encode_ack(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while unacked.len() == 10 && Instant::now() < deadline {
            assert!(poll_acks(&dialer, &mut pend, &mut unacked, &link));
            std::thread::yield_now();
        }
        assert_eq!(unacked.front().map(|&(s, _)| s), Some(5));
        assert_eq!(link.queued.load(Ordering::Relaxed), 6);
        // Back in blocking mode: a write goes through whole.
        (&dialer).write_all(&[0u8; 4096]).unwrap();
        drop(acceptor);
        // The acceptor's close surfaces as a lost connection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while poll_acks(&dialer, &mut pend, &mut unacked, &link) {
            assert!(Instant::now() < deadline, "close never surfaced");
            std::thread::yield_now();
        }
    }

    /// Every draw stays within the documented ±25% envelope, for bases
    /// spanning the whole 20ms → 1s backoff ladder.
    #[test]
    fn jitter_stays_within_quarter_envelope() {
        for base_ms in [20u64, 40, 160, 640, 1000] {
            let base = Duration::from_millis(base_ms);
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..10_000 {
                let j = jittered(base, &mut rng);
                assert!(j >= base.mul_f64(0.75), "{j:?} below -25% of {base:?}");
                assert!(j < base.mul_f64(1.25), "{j:?} at or above +25% of {base:?}");
            }
        }
    }

    /// Identical seeds produce identical schedules (the jitter is
    /// deterministic, so failures reproduce), and distinct seeds
    /// actually spread.
    #[test]
    fn jitter_is_deterministic_per_seed_and_spreads_across_seeds() {
        let base = Duration::from_millis(100);
        let draw = |seed: u64| -> Vec<Duration> {
            let mut rng = seed;
            (0..32).map(|_| jittered(base, &mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // A zero-width base must not panic or jitter.
        let mut rng = 3;
        assert_eq!(jittered(Duration::ZERO, &mut rng), Duration::ZERO);
    }
}
