//! `tcp_sym`: two `newtop-exp serve` processes on loopback, driven over
//! their control plane.
//!
//! 6 nodes in 2 symmetric groups; the serve processes own contiguous
//! node blocks and groups take every other node, so both groups span
//! both processes and every multicast crosses a real peer link. The
//! generator opens one control connection per process. The fleet is a
//! guard: however the run ends, both processes are stopped and reaped.

use crate::gen::{Gen, Shape, GEN_THREADS};
use crate::host::{
    assert_threads_fit, drain_and_gate, measure, median_throughput, put_end_to_end, put_layers,
    rejected, Round, ROUNDS,
};
use crate::metrics::{self, median, put, Outcome, Values};
use newtop_harness::remote::{members_of, peer_of};
use newtop_harness::RemoteCluster;
use newtop_types::{GroupId, ProcessId};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NODES: u32 = 6;
const GROUPS: u32 = 2;
const PEERS: u32 = 2;
/// Multicasts in flight per group. Latency on this host is set by timers
/// (a p50 near 8 ms at 8 and at 32 in flight), so a deeper window only
/// raises throughput; at 8 the serve processes idled between timer ticks
/// and every wake-up of an idle virtual CPU landed in the tail, which
/// then moved with the machine's load rather than with the program.
const WINDOW: usize = 32;
const PAYLOAD: usize = 64;
/// Member deliveries that end the warm-up (about 0.5 s at this window).
const WARMUP: u64 = 12_000;

/// Running serve processes; dropping the fleet kills and reaps them.
struct Fleet {
    children: Vec<Child>,
    ctrl: Vec<SocketAddr>,
}

impl Fleet {
    /// Starts the serve processes on free loopback ports.
    fn spawn(serve_bin: &Path) -> std::io::Result<Fleet> {
        let mut ports = Vec::new();
        {
            // Hold every probe listener until all four ports are chosen so
            // no two coincide; they are released before the serves bind.
            let probes: Vec<TcpListener> = (0..2 * PEERS)
                .map(|_| TcpListener::bind("127.0.0.1:0"))
                .collect::<std::io::Result<_>>()?;
            for p in &probes {
                ports.push(p.local_addr()?);
            }
        }
        let (data, ctrl) = ports.split_at(PEERS as usize);
        let list = |a: &[SocketAddr]| {
            a.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut fleet = Fleet {
            children: Vec::new(),
            ctrl: ctrl.to_vec(),
        };
        for me in 0..PEERS {
            let child = Command::new(serve_bin)
                .args([
                    "serve",
                    "--nodes",
                    &NODES.to_string(),
                    "--groups",
                    &GROUPS.to_string(),
                    "--peers",
                    &list(data),
                    "--ctrl",
                    &list(ctrl),
                    "--me",
                    &me.to_string(),
                    "--shards",
                    "1",
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?;
            fleet.children.push(child);
        }
        Ok(fleet)
    }

    /// Summed peak RSS of the serve processes, MB.
    fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| metrics::peak_rss_mb(Some(c.id())))
            .sum()
    }

    /// Asks the processes to exit (through `remote`) and reaps them,
    /// killing any that do not exit in time.
    fn stop(mut self, remote: RemoteCluster) {
        remote.shutdown_peers();
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in &mut self.children {
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Drop kills whatever is left and reaps everything.
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

fn shape(seed: u64) -> Shape {
    Shape {
        nodes: (1..=NODES).map(ProcessId).collect(),
        groups: (0..GROUPS)
            .map(|g| (GroupId(g + 1), members_of(g, NODES, GROUPS)))
            .collect(),
        window: WINDOW,
        payload: PAYLOAD,
        home: (1..=NODES).map(|i| peer_of(i, NODES, PEERS)).collect(),
        seed,
    }
}

/// Set-up of one fleet: spawn, connect, warm up.
struct Setup {
    fleet: Fleet,
    remote: RemoteCluster,
    gen: Gen,
    spawn_s: f64,
    connect_s: f64,
    first_delivery_s: f64,
    total_s: f64,
}

fn set_up(serve_bin: &Path, shape: &Shape) -> Result<Setup, String> {
    let t0 = Instant::now();
    let fleet = Fleet::spawn(serve_bin).map_err(|e| format!("spawn serve: {e}"))?;
    let spawned = Instant::now();
    let sockets_before = metrics::open_sockets();
    let remote = RemoteCluster::connect(&fleet.ctrl, NODES, Duration::from_secs(20))
        .map_err(|e| format!("connect to serve processes: {e}"))?;
    let opened = metrics::open_sockets() - sockets_before;
    if opened != PEERS as usize {
        return Err(format!(
            "expected {PEERS} control connections, opened {opened}"
        ));
    }
    let connected = Instant::now();
    let mut gen = Gen::new(&remote, shape);
    if !gen.run(&remote, connected + Duration::from_secs(60), |g| {
        g.total_delivered >= WARMUP
    }) {
        return Err("warm-up did not finish".into());
    }
    let first = gen.first_delivery.unwrap_or(connected);
    Ok(Setup {
        fleet,
        remote,
        gen,
        spawn_s: (spawned - t0).as_secs_f64(),
        connect_s: (connected - spawned).as_secs_f64(),
        first_delivery_s: first.saturating_duration_since(connected).as_secs_f64(),
        total_s: t0.elapsed().as_secs_f64(),
    })
}

/// Runs `tcp_sym` against the serve binary at `serve_bin`.
pub fn run(serve_bin: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    assert_threads_fit(GEN_THREADS);
    let shape = shape(seed);
    let slice = seconds / ROUNDS as f64;
    let mut rounds = Vec::new();
    let mut rss = Vec::new();
    let mut values = Values::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in 0..ROUNDS {
        let mut s = match set_up(serve_bin, &shape) {
            Ok(s) => s,
            Err(e) => return rejected(&e, attempted),
        };
        let m = measure(&mut s.gen, &s.remote, slice);
        attempted += m.attempted;
        rounds.push(Round::new(s.total_s, &s.gen, &m));
        let trace_here = traced && r + 1 == ROUNDS;
        if trace_here {
            trace_round(
                &mut values,
                &mut s,
                slice,
                median_throughput(&rounds),
                &mut attempted,
            );
        }
        let gate = drain_and_gate(&mut s.gen, &s.remote, Duration::from_secs(20));
        rss.push(s.fleet.peak_rss_mb());
        let Setup {
            fleet, remote, gen, ..
        } = s;
        if trace_here {
            crate::write_spans(&gen.trace.as_ref().expect("traced").tracer);
        }
        drop(gen);
        fleet.stop(remote);
        match gate {
            Ok(f) => failed += f,
            Err(e) => return rejected(&e, attempted),
        }
    }
    if traced {
        put(
            &mut values,
            "gate.failed_ratio",
            failed as f64 / attempted.max(1) as f64,
        );
    } else {
        put_end_to_end(&mut values, &rounds);
        put(&mut values, "peak_rss_mb", median(&rss));
    }
    Outcome {
        correct: true,
        attempted,
        failed,
        values,
    }
}

/// The traced phase of the last round.
fn trace_round(
    values: &mut Values,
    s: &mut Setup,
    slice: f64,
    plain_per_s: f64,
    attempted: &mut u64,
) {
    s.gen.set_traced(true);
    let m = measure(&mut s.gen, &s.remote, slice);
    *attempted += m.attempted;
    put_layers(values, &s.gen, &m, plain_per_s);
    let t = s.gen.trace.as_ref().expect("traced");
    put(
        values,
        "remote.verdict_rtt_us.p50",
        t.verdict.quantile_us(0.5),
    );
    put(
        values,
        "remote.verdict_rtt_us.p99",
        t.verdict.quantile_us(0.99),
    );
    put(
        values,
        "net.deliver_same_peer_us.p50",
        t.same_peer.quantile_us(0.5),
    );
    put(
        values,
        "net.deliver_cross_peer_us.p50",
        t.cross_peer.quantile_us(0.5),
    );
    let per = |x: u64| x as f64 / m.delivered.max(1) as f64;
    put(
        values,
        "net.null_frames_per_delivery",
        per(m.wire.null_frames),
    );
    put(values, "net.reconnects", m.wire.reconnects as f64);
    put(
        values,
        "net.handshake_rejects",
        m.wire.handshake_rejects as f64,
    );
    put(values, "net.dropped_dead", m.wire.dropped_dead as f64);
    put(values, "setup.spawn_s", s.spawn_s);
    put(values, "setup.connect_s", s.connect_s);
    put(values, "setup.first_delivery_s", s.first_delivery_s);
}
