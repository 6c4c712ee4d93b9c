//! End-to-end and per-layer benchmark of Graphene block relay.
//!
//! Three workloads, each run single-threaded in one process:
//!
//! * `relay-bigpool` — two-party `relay_block` of 100-transaction blocks
//!   against receiver mempools 41× the block (Fig. 14's large-mempool
//!   regime): Protocol 1 almost always suffices.
//! * `relay-partial` — 2000-transaction blocks, the receiver holding 90%
//!   of the block plus one block's worth of other transactions: every
//!   relay runs Protocol 2 and the extra-fetch round.
//! * `propagation-10k` — one Graphene block propagated across a
//!   10 000-peer scale-free simulated network.
//!
//! An untraced run (`trace == false`) reports the end-to-end metrics of
//! [`report::END_TO_END`]; a traced run reports the per-layer metrics of
//! [`report::PER_LAYER`], timed from outside around calls into each
//! crate's public functions. `README.md` says what each metric measures
//! and which end-to-end metric each per-layer metric should move.

pub mod gen;
pub mod propagation;
pub mod relay;
pub mod report;
pub mod stats;

use gen::{CaseShape, SetupTime};
use graphene::GrapheneConfig;
use report::Report;
use stats::{median, peak_rss_mb, percentile, us};
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["relay-bigpool", "relay-partial", "propagation-10k"];

/// The seed to develop a change against.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of development: a claimed gain must also hold here.
pub const CONFIRM_SEED: u64 = 7_919;

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
}

/// A two-party relay workload.
struct RelaySpec {
    /// Shape of every case.
    shape: CaseShape,
    /// Distinct cases the closed loop cycles through.
    ///
    /// A receiver mempool of ~4 000 transactions is a hash table of 8 192
    /// buckets of 81 B, ~650 KiB; 512 of them (~325 MiB) exceed the
    /// 300 MiB last-level cache of the reference host (Intel Xeon, 2
    /// cores), so relays read their mempools from memory, as a node
    /// relaying a fresh block does.
    cases: usize,
    /// Pre-hashed transactions the cases are drawn from.
    pool: usize,
    /// Input stream within the seed.
    stream: u64,
}

const RELAY_BIGPOOL: RelaySpec = RelaySpec {
    shape: CaseShape { block_txns: 100, held: 100, extras: 4_000 },
    cases: 512,
    pool: 32_768,
    stream: 1,
};

const RELAY_PARTIAL: RelaySpec = RelaySpec {
    shape: CaseShape { block_txns: 2_000, held: 1_800, extras: 2_000 },
    cases: 512,
    pool: 32_768,
    stream: 2,
};

/// Times a run builds its inputs before measuring; `setup_s` is the
/// median build time.
const SETUP_REPS: usize = 3;
/// Relays the untraced loop runs at least, so that its p99 has at least
/// ten samples beyond it.
const MIN_RELAYS: usize = 1_000;
/// Propagates an untraced run makes at least.
const MIN_PROPAGATES: usize = 3;
/// Time spent replaying one peer's receipt of the propagated block step
/// by step (traced runs of `propagation-10k`).
const RECEIPT_REPLAY: Duration = Duration::from_secs(1);

/// Run `workload`. A wrong output or a broken invariant is an error.
pub fn run(workload: &str, opts: &Options) -> Result<Report, String> {
    let report = match workload {
        "relay-bigpool" => run_relay(&RELAY_BIGPOOL, opts)?,
        "relay-partial" => run_relay(&RELAY_PARTIAL, opts)?,
        "propagation-10k" => run_propagation(opts)?,
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    report.validate(Report::expected(opts.trace))?;
    Ok(report)
}

fn run_relay(spec: &RelaySpec, opts: &Options) -> Result<Report, String> {
    let cfg = GrapheneConfig::default();
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        // Free the previous build first: each build is timed alone, and
        // peak memory holds one set of inputs.
        drop(std::mem::take(&mut cases));
        let mut time = SetupTime::default();
        let mut rng = gen::rng(opts.seed, spec.stream);
        let pool = gen::tx_pool(&mut rng, spec.pool, &mut time);
        cases = gen::relay_cases(&mut rng, &pool, spec.shape, spec.cases, &mut time);
        setups.push(time);
    }
    let expected = relay::reference_pass(&cases, &cfg)?;
    let totals = relay::totals(&expected);
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut r = Report::default();

    if !opts.trace {
        let lt = relay::closed_loop(&cases, &expected, &cfg, budget, MIN_RELAYS)?;
        let mut samples = lt.relay_us.clone();
        r.attempted = samples.len() as u64;
        r.set("setup_s", median_setup(&setups, SetupTime::total));
        r.set("relays_per_s", lt.relays_per_s());
        r.set("wall_p50_ms", median(&mut samples) / 1e3);
        r.set("bytes_per_block", totals.bytes_per_block);
        r.set("messages_per_block", totals.messages_per_block);
        r.set("success_rate", 1.0 - totals.fallback_rate);
        r.set("peak_rss_mb", peak_rss_mb()?);
        return Ok(r);
    }

    let lt = relay::closed_loop(&cases, &expected, &cfg, budget / 2, MIN_RELAYS)?;
    let tp = relay::traced_phase(&cases, &expected, &cfg, budget / 2, &mut r)?;
    r.attempted = lt.relay_us.len() as u64 + tp.relays;
    let mut untraced = lt.relay_us;
    set_trace(&mut r, median(&mut untraced), percentile(&mut untraced, 99.0), tp.traced_p50_us);
    set_setup(&mut r, &setups);
    for s in report::PER_LAYER.iter().filter(|s| s.name.starts_with("netsim.")) {
        r.set(s.name, 0.0); // no simulated network on this workload
    }
    Ok(r)
}

/// Network builds and propagates of one `propagation-10k` run.
#[derive(Default)]
struct Propagations {
    setups: Vec<SetupTime>,
    graph: Vec<f64>,
    peers: Vec<f64>,
    /// The first propagate's counts, which every later one must repeat.
    first: Option<propagation::Counts>,
    /// The block and mempool of the last propagate.
    case: Option<gen::RelayCase>,
}

impl Propagations {
    fn build(&mut self, seed: u64) -> propagation::Built {
        let built = propagation::build(seed);
        self.setups.push(built.setup);
        self.graph.push(built.graph.as_secs_f64());
        self.peers.push(built.peers.as_secs_f64());
        built
    }

    /// Build and propagate until `budget` has passed and `min` propagates
    /// ran; returns each propagate's wall time, µs.
    fn phase(&mut self, seed: u64, budget: Duration, min: usize) -> Result<Vec<f64>, String> {
        let mut walls = Vec::new();
        let start = Instant::now();
        while walls.len() < min || start.elapsed() < budget {
            let built = self.build(seed);
            let (s, case) = propagation::propagate(built)?;
            match &self.first {
                None => self.first = Some(s.counts),
                Some(f) if *f != s.counts => {
                    return Err(format!(
                        "propagate is not deterministic: {f:?} then {:?}",
                        s.counts
                    ))
                }
                Some(_) => {}
            }
            walls.push(us(s.wall));
            self.case = Some(case);
        }
        Ok(walls)
    }
}

fn run_propagation(opts: &Options) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut runs = Propagations::default();
    // Network builds are quick and the first few run on a cold allocator;
    // time several more than the propagates need, so `setup_s` is a median
    // over many builds.
    for _ in 0..SETUP_REPS {
        runs.build(opts.seed);
    }
    let peers_f = propagation::PEERS as f64;
    let mut r = Report::default();

    if !opts.trace {
        let mut walls = runs.phase(opts.seed, budget, MIN_PROPAGATES)?;
        let c = runs.first.expect("at least one propagate ran");
        r.attempted = walls.len() as u64 * propagation::PEERS as u64;
        let p50 = median(&mut walls);
        r.set("setup_s", median_setup(&runs.setups, SetupTime::total));
        r.set("relays_per_s", c.with_block as f64 / (p50 / 1e6));
        r.set("wall_p50_ms", p50 / 1e3);
        r.set("bytes_per_block", c.total_bytes as f64 / peers_f);
        r.set("messages_per_block", c.frames as f64 / peers_f);
        r.set("success_rate", c.with_block as f64 / peers_f);
        r.set("peak_rss_mb", peak_rss_mb()?);
        return Ok(r);
    }

    let mut untraced = runs.phase(opts.seed, budget / 2, 2)?;
    let mut traced = runs.phase(opts.seed, budget / 2, 2)?;
    let c = runs.first.expect("at least one propagate ran");
    let case = runs.case.expect("at least one propagate ran");
    let untraced_p50 = median(&mut untraced);
    let cfg = GrapheneConfig::default();
    let cases = [case];
    let expected = relay::reference_pass(&cases, &cfg)?;
    let tp = relay::traced_phase(&cases, &expected, &cfg, RECEIPT_REPLAY, &mut r)?;
    r.attempted = (untraced.len() + traced.len()) as u64 * propagation::PEERS as u64 + tp.relays;
    // A handful of propagates supports no percentile beyond the median.
    set_trace(&mut r, untraced_p50, 0.0, median(&mut traced));
    set_setup(&mut r, &runs.setups);
    r.set("netsim.setup_graph_s", median(&mut runs.graph));
    r.set("netsim.setup_peers_s", median(&mut runs.peers));
    r.set("netsim.ns_per_frame", untraced_p50 * 1e3 / c.frames as f64);
    // Each frame is one delivery event and one drain event.
    r.set(
        "netsim.queue_ns_per_event",
        propagation::queue_ns_per_event(2 * c.frames, c.event_queue_hwm, opts.seed),
    );
    r.set("netsim.frames", c.frames as f64);
    let typed: u64 = c.bytes_by_type.iter().sum();
    for ((_, name), b) in propagation::MESSAGE_TYPES.iter().zip(&c.bytes_by_type) {
        r.set(name, *b as f64);
    }
    r.set("netsim.bytes.other", (c.total_bytes - typed) as f64);
    r.set("netsim.event_queue_hwm", c.event_queue_hwm as f64);
    r.set("netsim.wheel_slot_hwm", c.wheel_slot_hwm as f64);
    r.set("netsim.shed_frames", c.shed_frames as f64);
    r.set("netsim.dropped", c.dropped as f64);
    r.set("netsim.stale_timers", c.stale_timers as f64);
    r.set("netsim.escalations", c.escalations as f64);
    r.set("netsim.resource_hwm_bytes", c.resource_hwm_bytes as f64);
    r.set("netsim.sim_p50_ms", c.sim_p50_us as f64 / 1e3);
    r.set("netsim.sim_p99_ms", c.sim_p99_us as f64 / 1e3);
    // Every peer receives the block once: decoding its frames and running
    // the Protocol 1 receiver is the per-peer receipt cost.
    let receipt_us = r.get("core.p1_decode_us").unwrap_or_default()
        + r.get("wire.decode_us").unwrap_or_default();
    r.set("netsim.receipt_share_est", peers_f * receipt_us / untraced_p50);
    Ok(r)
}

fn median_setup(setups: &[SetupTime], part: fn(&SetupTime) -> Duration) -> f64 {
    median(&mut setups.iter().map(|s| part(s).as_secs_f64()).collect::<Vec<_>>())
}

fn set_setup(r: &mut Report, setups: &[SetupTime]) {
    let generator = median_setup(setups, |s| s.generator);
    let program = median_setup(setups, |s| s.program);
    r.set("setup.generator_s", generator);
    r.set("setup.program_s", program);
    r.set("setup.generator_share", generator / (generator + program));
}

fn set_trace(r: &mut Report, untraced_us: f64, untraced_p99_us: f64, traced_us: f64) {
    r.set("trace.untraced_p50_us", untraced_us);
    r.set("trace.untraced_p99_us", untraced_p99_us);
    r.set("trace.traced_p50_us", traced_us);
    r.set("trace.overhead_us", traced_us - untraced_us);
}
