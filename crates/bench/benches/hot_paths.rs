//! Microbenchmarks of Newtop's per-message work: the costs §6 claims are
//! "low and bounded" — header encode/decode, clock and vector updates, the
//! symmetric receive path, and end-to-end engine throughput on the
//! zero-latency `TestNet` facade over the simulator.

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use newtop_bench::sample_app_message;
use newtop_core::{LogicalClock, MsnVector, Process};
use newtop_harness::chaos::ChaosScenario;
use newtop_harness::sweep::run_chaos_seed;
use newtop_harness::testnet::TestNet;
use newtop_harness::{check_all, History};
use newtop_sim::{LatencyModel, NetConfig, Outbox, Sim, SimNode};
use newtop_types::{
    wire, Envelope, GroupConfig, GroupId, Instant, Message, MessageBody, Msn, OrderMode,
    ProcessConfig, ProcessId, Span,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    for payload in [0usize, 64, 1024] {
        let env = sample_app_message(100_000, payload);
        group.bench_with_input(BenchmarkId::new("encode", payload), &env, |b, env| {
            b.iter(|| black_box(wire::encode(env)));
        });
        // The allocation-free framing path: one scratch buffer reused for
        // every frame, sized once from the exact encoded_len.
        group.bench_with_input(BenchmarkId::new("encode_into", payload), &env, |b, env| {
            let mut buf = BytesMut::with_capacity(wire::encoded_len(env));
            b.iter(|| {
                buf.clear();
                wire::encode_into(env, &mut buf);
                black_box(buf.len())
            });
        });
        let encoded = wire::encode(&env);
        group.bench_with_input(BenchmarkId::new("decode", payload), &encoded, |b, enc| {
            b.iter(|| {
                let mut buf = enc.clone();
                black_box(wire::decode(&mut buf).expect("valid frame"))
            });
        });
        group.bench_with_input(BenchmarkId::new("encoded_len", payload), &env, |b, env| {
            b.iter(|| black_box(wire::encoded_len(env)));
        });
    }
    group.finish();
}

/// Send-side fan-out: one application multicast producing `n - 1` envelopes
/// sharing a single `Arc<Message>`. The engine is rebuilt every 10k sends so
/// retention/flow bookkeeping stays bounded without the rebuild cost showing
/// up in the per-iteration figure.
fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("multicast_fanout");
    for n in [4u32, 32, 256] {
        group.bench_with_input(BenchmarkId::new("app_send", n), &n, |b, &n| {
            let members: BTreeSet<ProcessId> = (1..=n).map(ProcessId).collect();
            let mk = || {
                let mut p = Process::new(ProcessId(1), ProcessConfig::new());
                p.bootstrap_group(
                    Instant::ZERO,
                    GroupId(1),
                    &members,
                    GroupConfig::new(OrderMode::Symmetric),
                )
                .expect("bootstrap");
                p
            };
            let payload = Bytes::from_static(
                b"fanout-payload-64-bytes-.........................................",
            );
            let mut p = mk();
            let mut sends = 0u32;
            b.iter(|| {
                if sends == 10_000 {
                    p = mk();
                    sends = 0;
                }
                sends += 1;
                let actions = p
                    .multicast(Instant::ZERO, GroupId(1), payload.clone())
                    .expect("member send");
                black_box(actions.len())
            });
        });
    }
    group.finish();
}

/// The cached-min invalidation workload: round-robin advances always move
/// the current argmin (every ancestor cache on its path is torn down), a
/// skewed advance leaves the cache untouched, and both minimum forms are
/// read back each iteration.
fn bench_mixed_advance_min(c: &mut Criterion) {
    let mut group = c.benchmark_group("receive_vector");
    let n = 256u32;
    group.bench_with_input(BenchmarkId::new("mixed_advance_min", n), &n, |b, &n| {
        let mut rv = MsnVector::new((1..=n).map(ProcessId));
        let mut c = 0u64;
        b.iter(|| {
            c += 1;
            // Argmin-moving advance (cache invalidation path).
            rv.advance(ProcessId((c % u64::from(n)) as u32 + 1), Msn(c));
            // Far-ahead member advance (cache-preserving path).
            rv.advance(ProcessId(1 + (c % 7) as u32), Msn(c + 1_000_000));
            black_box((rv.min_live(), rv.min_live_excluding(ProcessId(1))))
        });
    });
    group.finish();
}

fn bench_clock_and_vectors(c: &mut Criterion) {
    c.bench_function("logical_clock_send_receive_pair", |b| {
        let mut lc = LogicalClock::new();
        b.iter(|| {
            let c1 = lc.advance_for_send();
            lc.observe(black_box(Msn(c1.0 + 3)));
            black_box(lc.value())
        });
    });
    let mut group = c.benchmark_group("receive_vector");
    for n in [4u32, 32, 256] {
        group.bench_with_input(BenchmarkId::new("advance_and_min", n), &n, |b, &n| {
            let mut rv = MsnVector::new((1..=n).map(ProcessId));
            let mut c = 0u64;
            b.iter(|| {
                c += 1;
                rv.advance(ProcessId(c as u32 % n + 1), Msn(c));
                black_box(rv.min_live_excluding(ProcessId(1)))
            });
        });
    }
    group.finish();
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_multicast_roundtrip");
    group.sample_size(20);
    for n in [3u32, 8, 16] {
        group.bench_with_input(BenchmarkId::new("symmetric", n), &n, |b, &n| {
            b.iter(|| {
                let mut net = TestNet::new(1..=n);
                net.bootstrap_group(
                    GroupId(1),
                    &(1..=n).collect::<Vec<_>>(),
                    GroupConfig::new(OrderMode::Symmetric),
                );
                for k in 0..20u32 {
                    net.multicast(k % n + 1, GroupId(1), b"bench-payload");
                }
                net.run_to_quiescence();
                net.advance_past_omega(GroupId(1));
                black_box(net.deliveries(1).len())
            });
        });
        group.bench_with_input(BenchmarkId::new("asymmetric", n), &n, |b, &n| {
            b.iter(|| {
                let mut net = TestNet::new(1..=n);
                net.bootstrap_group(
                    GroupId(1),
                    &(1..=n).collect::<Vec<_>>(),
                    GroupConfig::new(OrderMode::Asymmetric),
                );
                for k in 0..20u32 {
                    net.multicast(k % n + 1, GroupId(1), b"bench-payload");
                }
                net.run_to_quiescence();
                black_box(net.deliveries(1).len())
            });
        });
    }
    group.finish();
}

/// The `sim_churn` receive shape, engine only: one process in a 16-member
/// symmetric group that covers three 6-member groups (one symmetric, two
/// asymmetric), each co-member in exactly one of them. One iteration is
/// one ω round: the process's own time-silence null, then one null from
/// each of the 15 co-members, each also the implicit null of its covered
/// group. Every round's nulls report the previous round as received, so
/// stability advances and retention is collected every round.
fn bench_null_receipt(c: &mut Criterion) {
    c.bench_function("engine_null_receipt", |b| {
        let omega = Span::from_millis(5);
        let mut p = Process::new(ProcessId(1), ProcessConfig::new());
        let groups: [(u32, OrderMode, Vec<u32>); 4] = [
            (1, OrderMode::Symmetric, (1..=16).collect()),
            (2, OrderMode::Symmetric, vec![1, 2, 3, 4, 5, 6]),
            (3, OrderMode::Asymmetric, vec![1, 7, 8, 9, 10, 11]),
            (4, OrderMode::Asymmetric, vec![1, 12, 13, 14, 15, 16]),
        ];
        for (g, mode, members) in groups {
            let members: BTreeSet<ProcessId> = members.into_iter().map(ProcessId).collect();
            let cfg = GroupConfig::new(mode)
                .with_omega(omega)
                .with_big_omega(Span::from_millis(60));
            p.bootstrap_group(Instant::ZERO, GroupId(g), &members, cfg)
                .expect("bootstrap");
        }
        let mut now = Instant::ZERO;
        let mut out = Vec::new();
        let mut reported = Msn::ZERO;
        b.iter(|| {
            now += omega;
            out.clear();
            p.tick_into(now, &mut out);
            let c = Msn(p.lc().0 + 1);
            for from in 2..=16 {
                let null = Message {
                    group: GroupId(1),
                    sender: ProcessId(from),
                    c,
                    ldn: reported,
                    body: MessageBody::Null,
                };
                p.handle_into(
                    now,
                    ProcessId(from),
                    Envelope::Group(Arc::new(null)),
                    &mut out,
                );
            }
            reported = c;
            black_box(out.len())
        });
    });
}

fn bench_membership_agreement(c: &mut Criterion) {
    // `crash_exclusion_setup` runs the same script without the crash —
    // bootstrap plus Ω of time-silence traffic — so the agreement's own
    // cost is the difference between the two rows.
    let mut group = c.benchmark_group("membership_crash_to_view");
    group.sample_size(10);
    for n in [4u32, 8, 16, 32, 64] {
        for (name, crash) in [("crash_exclusion", true), ("crash_exclusion_setup", false)] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                b.iter(|| {
                    let mut net = TestNet::new(1..=n);
                    net.bootstrap_group(
                        GroupId(1),
                        &(1..=n).collect::<Vec<_>>(),
                        GroupConfig::new(OrderMode::Symmetric),
                    );
                    net.advance_past_omega(GroupId(1));
                    if crash {
                        net.crash(n);
                    }
                    net.advance_past_big_omega(GroupId(1));
                    black_box(net.view_history(1, GroupId(1)).len())
                });
            });
        }
    }
    group.finish();
}

fn bench_payload_paths(c: &mut Criterion) {
    c.bench_function("multicast_1kb_payload_3_members", |b| {
        b.iter(|| {
            let mut net = TestNet::new([1, 2, 3]);
            net.bootstrap_group(
                GroupId(1),
                &[1, 2, 3],
                GroupConfig::new(OrderMode::Symmetric),
            );
            let payload = Bytes::from(vec![7u8; 1024]);
            net.multicast(1, GroupId(1), &payload);
            net.run_to_quiescence();
            net.advance_past_omega(GroupId(1));
            black_box(net.deliveries(2).len())
        });
    });
}

/// A minimal protocol-free node for timing the raw discrete-event engine:
/// every ω it multicasts a counter to all peers; received messages only
/// bump a tally. Isolates the engine's per-event overhead (dense node
/// table, pooled outboxes, FIFO clamp matrix, wake scheduling) from
/// `newtop_core`'s processing.
struct ChatterNode {
    me: u32,
    n: u32,
    period: Span,
    next_tick: Instant,
    sent: u64,
    seen: u64,
}

impl SimNode for ChatterNode {
    type Msg = u64;

    fn on_message(&mut self, _now: Instant, _from: ProcessId, msg: u64, _out: &mut Outbox<u64>) {
        self.seen = self.seen.wrapping_add(msg);
    }

    fn on_tick(&mut self, now: Instant, out: &mut Outbox<u64>) {
        self.sent += 1;
        for p in 1..=self.n {
            if p != self.me {
                out.send(ProcessId(p), self.sent);
            }
        }
        self.next_tick = now + self.period;
    }

    fn next_deadline(&self) -> Option<Instant> {
        Some(self.next_tick)
    }
}

/// Raw simulator event-loop throughput: all-to-all chatter under random
/// latency (Deliver + Wake + outbox flush + FIFO clamp per event), no
/// protocol logic. `ns/iter` here is ns per 100ms of simulated chatter.
fn bench_sim_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine");
    for n in [4u32, 8, 16] {
        group.bench_with_input(BenchmarkId::new("all_to_all_chatter", n), &n, |b, &n| {
            b.iter(|| {
                let mut sim: Sim<ChatterNode> =
                    Sim::new(NetConfig::new(7).with_latency(LatencyModel::Uniform {
                        lo: Span::from_micros(100),
                        hi: Span::from_micros(3_000),
                    }));
                for me in 1..=n {
                    sim.add_node(
                        ProcessId(me),
                        ChatterNode {
                            me,
                            n,
                            period: Span::from_micros(1_000),
                            next_tick: Instant::from_micros(u64::from(me)),
                            sent: 0,
                            seen: 0,
                        },
                    );
                }
                sim.run_until(Instant::from_micros(100_000));
                black_box(sim.stats().delivered)
            });
        });
    }
    group.finish();
}

/// Chaos-fleet seed throughput: one full seed (plan → simulate → check)
/// per iteration over a fixed rotating band, so `1e9 / ns_per_iter` is the
/// fleet's single-thread seeds/sec. The checker-only figure isolates the
/// single-pass property checks from engine time.
fn bench_chaos_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos_throughput");
    group.sample_size(10);
    group.bench_function("seed_run_and_check", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = (seed + 1) % 8;
            black_box(run_chaos_seed(&ChaosScenario::new(seed), false).deliveries)
        });
    });
    group.bench_function("check_only", |b| {
        let histories: Vec<(History, _)> = (0..4u64)
            .map(|s| {
                let plan = ChaosScenario::new(s).plan();
                (plan.run().history(), plan.check_options())
            })
            .collect();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % histories.len();
            let (h, opts) = &histories[k];
            black_box(check_all(h, opts).len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_clock_and_vectors,
    bench_mixed_advance_min,
    bench_fanout,
    bench_engine_throughput,
    bench_null_receipt,
    bench_membership_agreement,
    bench_payload_paths,
    bench_sim_engine,
    bench_chaos_throughput
);
criterion_main!(benches);
