//! One Graphene block propagated across a 10 000-peer simulated network.
//!
//! The configuration is the repository's propagation sweep at 10k peers:
//! a Barabási–Albert overlay with attachment degree 4, geographic link
//! latencies, adaptive gossip fan-out starting at 4, and a 30-transaction
//! block that every peer's 60-transaction mempool already holds. Each
//! sample builds the network afresh from the seed (timed as set-up) and
//! runs one `Network::propagate` (timed as the operation); every sample
//! must reproduce the first one's counts exactly.

use crate::gen::{self, CaseShape, RelayCase, SetupTime};
use crate::stats::us;
use graphene::GrapheneConfig;
use graphene_netsim::event::{Event, EventQueue};
use graphene_netsim::{
    barabasi_albert, FanoutPolicy, Network, PeerId, RelayProtocol, ResourceLimits, SimTime,
};
use rand::RngExt;
use std::time::{Duration, Instant};

/// Peers in the network.
pub const PEERS: usize = 10_000;
/// Barabási–Albert attachment degree.
pub const BA_M: usize = 4;
/// First-wave announcement fan-out.
pub const FANOUT: usize = 4;
/// The relayed block and every peer's mempool.
pub const SHAPE: CaseShape = CaseShape { block_txns: 30, held: 30, extras: 30 };
/// Simulated-time budget (10 min, far past convergence).
const MAX_TIME: SimTime = SimTime(600_000_000);
/// Input stream of this workload within the seed.
const STREAM: u64 = 3;

/// A network ready to propagate, with its block.
pub struct Built {
    /// The network, every peer holding the mempool.
    pub net: Network,
    /// The block peer 0 originates and the peers' mempool, as a two-party
    /// relay case (peer 0 to any other peer) for the receipt replays.
    pub case: RelayCase,
    /// Set-up time split into generator and program parts.
    pub setup: SetupTime,
    /// `barabasi_albert` plus `connect_edges`.
    pub graph: Duration,
    /// `Network::new`, mempool assignment, link and fan-out settings.
    pub peers: Duration,
}

/// Build the network for `seed`.
pub fn build(seed: u64) -> Built {
    let mut setup = SetupTime::default();
    let mut rng = gen::rng(seed, STREAM);
    let pool = gen::tx_pool(&mut rng, SHAPE.block_txns + SHAPE.extras, &mut setup);
    let case =
        gen::relay_cases(&mut rng, &pool, SHAPE, 1, &mut setup).pop().expect("one case requested");
    let (net_seed, geo_seed, graph_seed): (u64, u64, u64) =
        (rng.random(), rng.random(), rng.random());

    let t = Instant::now();
    let mut net = Network::new(PEERS, RelayProtocol::Graphene(GrapheneConfig::default()), net_seed);
    for i in 0..PEERS {
        // Copy-on-write: every peer shares one map until it confirms.
        net.peer_mut(PeerId(i)).mempool = case.mempool.clone();
    }
    net.enable_geographic_links(geo_seed);
    net.set_fanout(FanoutPolicy::Adaptive { initial: FANOUT });
    let peers = t.elapsed();

    let t = Instant::now();
    let edges = barabasi_albert(PEERS, BA_M, graph_seed);
    net.connect_edges(&edges);
    let graph = t.elapsed();

    setup.program += peers + graph;
    Built { net, case, setup, graph, peers }
}

/// The deterministic outputs of one propagate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Peers holding the block at the end.
    pub with_block: usize,
    /// Frames sent.
    pub frames: u64,
    /// Bytes of all frames.
    pub total_bytes: u64,
    /// Bytes per message type byte, for the types in [`MESSAGE_TYPES`].
    pub bytes_by_type: Vec<u64>,
    /// Simulated arrival percentiles, µs.
    pub sim_p50_us: u64,
    /// 99th percentile of simulated arrival, µs.
    pub sim_p99_us: u64,
    /// Peak pending events.
    pub event_queue_hwm: u64,
    /// Peak events in one wheel slot.
    pub wheel_slot_hwm: u64,
    /// Frames shed under backpressure.
    pub shed_frames: u64,
    /// Frames dropped by links.
    pub dropped: u64,
    /// Timers that fired for a stale session.
    pub stale_timers: u64,
    /// Recovery-ladder escalations.
    pub escalations: u64,
    /// Peak accounted memory of one peer, bytes.
    pub resource_hwm_bytes: u64,
}

/// Message types reported one by one, with their metric names.
pub const MESSAGE_TYPES: &[(u8, &str)] = &[
    (0x01, "netsim.bytes.inv"),
    (0x02, "netsim.bytes.getdata"),
    (0x10, "netsim.bytes.graphene_block"),
    (0x11, "netsim.bytes.graphene_request"),
    (0x12, "netsim.bytes.graphene_recovery"),
    (0x13, "netsim.bytes.get_graphene_txn"),
    (0x22, "netsim.bytes.block_txn"),
    (0x42, "netsim.bytes.get_full_block"),
    (0x40, "netsim.bytes.full_block"),
];

/// One timed propagate, with its counts.
pub struct Sample {
    /// Wall time of `propagate`.
    pub wall: Duration,
    /// What it produced.
    pub counts: Counts,
}

/// Propagate the built block from peer 0 and check the run: every peer
/// reached, p99 at or above p50, accounted memory under the §6.2 ceiling.
/// Hands back the block and mempool as a relay case.
pub fn propagate(built: Built) -> Result<(Sample, RelayCase), String> {
    // The case keeps one more reference to the peers' shared mempool for
    // the whole run, as the sweep's scenario does.
    let Built { mut net, case, .. } = built;
    let block = case.block.clone();
    let t = Instant::now();
    net.propagate(PeerId(0), block, MAX_TIME);
    let wall = t.elapsed();
    let m = &net.metrics;
    let pct = |p| m.arrival_percentile(p).map_or(0, |t: SimTime| t.0);
    let counts = Counts {
        with_block: m.peers_with_block(),
        frames: m.frames(),
        total_bytes: m.total_bytes(),
        bytes_by_type: MESSAGE_TYPES.iter().map(|(ty, _)| m.bytes_for(*ty)).collect(),
        sim_p50_us: pct(50.0),
        sim_p99_us: pct(99.0),
        event_queue_hwm: m.event_queue_hwm(),
        wheel_slot_hwm: m.wheel_slot_hwm(),
        shed_frames: m.shed_frames(),
        dropped: m.dropped(),
        stale_timers: m.stale_timers(),
        escalations: m.escalations(),
        resource_hwm_bytes: m.resource_hwm_bytes(),
    };
    let ceiling = ResourceLimits::default().accounted_ceiling();
    if counts.with_block != PEERS {
        return Err(format!("only {} of {PEERS} peers received the block", counts.with_block));
    }
    if counts.sim_p99_us < counts.sim_p50_us {
        return Err(format!("p99 {} µs below p50 {} µs", counts.sim_p99_us, counts.sim_p50_us));
    }
    if counts.resource_hwm_bytes > ceiling {
        return Err(format!(
            "accounted memory {} B above the ceiling {ceiling} B",
            counts.resource_hwm_bytes
        ));
    }
    if counts.event_queue_hwm == 0 {
        return Err("the event queue never held an event".into());
    }
    // Dropping 10 000 peers is not part of the operation.
    drop(net);
    Ok((Sample { wall, counts }, case))
}

/// Replay `events` schedule-and-pop pairs through a fresh [`EventQueue`]
/// held at `depth` pending events, with delays across the link-latency
/// range. Returns nanoseconds per pair.
pub fn queue_ns_per_event(events: u64, depth: u64, seed: u64) -> f64 {
    let mut rng = gen::rng(seed, STREAM + 1);
    // Link latencies span 2–150 ms; draw delays up front so the timed loop
    // holds only queue work.
    let delays: Vec<u64> = (0..events).map(|_| rng.random_range(1_000..=150_000)).collect();
    let mut q = EventQueue::new();
    for _ in 0..depth {
        q.schedule(SimTime(rng.random_range(0..150_000)), Event::Drain { peer: PeerId(0) });
    }
    let t = Instant::now();
    for d in &delays {
        let (at, ev) = q.pop().expect("the queue stays at its depth");
        q.schedule(SimTime(at.0 + d), ev);
    }
    let elapsed = t.elapsed();
    std::hint::black_box(q.len());
    us(elapsed) * 1e3 / events.max(1) as f64
}
