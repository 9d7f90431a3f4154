//! Randomized property tests over the network simulator.
//!
//! Ported from `proptest` to seeded, deterministic case loops over
//! [`ici_rng`].

use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::queue::EventQueue;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::{Placement, Topology};
use ici_rng::Xoshiro256;

const CASES: usize = 64;

/// The event queue pops every scheduled event exactly once, in
/// non-decreasing time order, with FIFO tie-breaking.
#[test]
fn queue_is_a_stable_time_order() {
    let mut rng = Xoshiro256::seed_from_u64(0xD1);
    for _ in 0..CASES {
        let times: Vec<u64> = (0..rng.gen_range(1usize..200))
            .map(|_| rng.gen_range(0u64..1_000))
            .collect();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut popped = Vec::new();
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                assert!(at >= lt);
                if at == lt {
                    assert!(idx > lidx, "FIFO violated at equal times");
                }
            }
            assert_eq!(at, SimTime::from_micros(times[idx]));
            last = Some((at, idx));
            popped.push(idx);
        }
        popped.sort_unstable();
        assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }
}

/// Transit time is symmetric in distance terms when jitter is off and
/// grows monotonically with payload size.
#[test]
fn transit_monotone_in_bytes() {
    let mut rng = Xoshiro256::seed_from_u64(0xD2);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..20);
        let small = rng.gen_range(0u64..10_000);
        let extra = rng.gen_range(1u64..1_000_000);
        let topo = Topology::generate(n, &Placement::Uniform { side: 50.0 }, 7);
        let link = LinkModel::quiet();
        let from = NodeId::new(rng.gen_range(0usize..n) as u64);
        let to = NodeId::new(rng.gen_range(0usize..n) as u64);
        let t1 = link.transit(&topo, from, to, small, 0);
        let t2 = link.transit(&topo, from, to, small + extra, 0);
        assert!(t2 > t1);
        // Symmetry of the propagation term.
        assert_eq!(
            link.transit(&topo, from, to, 0, 0),
            link.transit(&topo, to, from, 0, 0)
        );
    }
}

/// The meter's total equals the sum over kinds, and per-node sends sum
/// to the same total.
#[test]
fn meter_totals_are_consistent() {
    let mut rng = Xoshiro256::seed_from_u64(0xD3);
    for _ in 0..CASES {
        let topo = Topology::generate(10, &Placement::Uniform { side: 10.0 }, 1);
        let mut net = Network::new(topo, LinkModel::default());
        for _ in 0..rng.gen_range(0usize..100) {
            let from = rng.gen_range(0u64..10);
            let to = rng.gen_range(0u64..10);
            let kind = MessageKind::ALL[rng.gen_range(0usize..MessageKind::ALL.len())];
            let bytes = rng.gen_range(0u64..10_000);
            let _ = net.send(NodeId::new(from), NodeId::new(to), kind, bytes);
        }
        let meter = net.meter();
        let by_kind: u64 = meter.by_kind().iter().map(|(_, c)| c.bytes).sum();
        assert_eq!(meter.total().bytes, by_kind);
        let by_sender: u64 = (0..10u64)
            .map(|n| meter.sent_by(NodeId::new(n)).bytes)
            .sum();
        assert_eq!(meter.total().bytes, by_sender);
        let msgs_by_kind: u64 = meter.by_kind().iter().map(|(_, c)| c.messages).sum();
        assert_eq!(meter.total().messages, msgs_by_kind);
    }
}

/// Crash/recover round-trips restore delivery; crashed nodes never
/// receive.
#[test]
fn liveness_transitions() {
    let mut rng = Xoshiro256::seed_from_u64(0xD4);
    for _ in 0..CASES {
        let crash_mask = rng.gen_range(0u64..1024) as u16;
        let seed = rng.next_u64();
        let topo = Topology::generate(10, &Placement::Uniform { side: 10.0 }, seed);
        let mut net = Network::new(topo, LinkModel::default());
        for i in 0..10u64 {
            if crash_mask & (1 << i) != 0 {
                net.crash(NodeId::new(i));
            }
        }
        let live = net.live_nodes();
        assert_eq!(live.len(), 10 - net.down_count());
        for &node in &live {
            assert!(net.is_up(node));
        }
        // Recover everyone; all sends succeed again.
        for i in 0..10u64 {
            net.recover(NodeId::new(i));
        }
        for i in 0..10u64 {
            let outcome = net.send(
                NodeId::new(i),
                NodeId::new((i + 1) % 10),
                MessageKind::Control,
                1,
            );
            assert!(outcome.delay().is_some());
        }
    }
}

/// Durations and times obey basic arithmetic laws.
#[test]
fn time_arithmetic() {
    let mut rng = Xoshiro256::seed_from_u64(0xD5);
    for _ in 0..CASES * 4 {
        let a = rng.gen_range(0u64..1_000_000);
        let b = rng.gen_range(0u64..1_000_000);
        let t = SimTime::from_micros(a);
        let d = Duration::from_micros(b);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_since(t + d), Duration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
    }
}
