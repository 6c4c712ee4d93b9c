//! Two-party relay: the untraced closed loop and the traced step-by-step relay.
//!
//! The untraced loop calls `graphene::relay_block` exactly as a client
//! would. The traced relay walks the same relay through the public
//! protocol steps (`protocol1::sender_encode`, real wire frames,
//! `protocol1::receiver_decode`, `protocol2::receiver_request`,
//! `sender_respond`, `receiver_complete`, `finalize_p2`), timing each
//! step from outside, and must reach the same outcome and round count as
//! `relay_block` on every input. Kernels that are not a step of their own
//! (the Merkle root, the Bloom `S` probe, the Bloom `R` build, the IBLT
//! subtract-and-peel, the mempool confirm) are timed afterwards by calling
//! their public functions on that relay's own inputs.

use crate::gen::RelayCase;
use crate::report::Report;
use crate::stats::{median, us};
use graphene::protocol1::{self, CandidateSet};
use graphene::protocol2;
use graphene::{relay_block, GrapheneConfig, RelayOutcome, RelayReport};
use graphene_blockchain::TxId;
use graphene_bloom::{BitVec, BloomFilter, Membership, ProbeScratch};
use graphene_hashes::{merkle_root, short_id_8};
use graphene_iblt::Iblt;
use graphene_wire::messages::{
    BlockTxnMsg, FullBlockMsg, GetDataMsg, GetFullBlockMsg, GetGrapheneTxnMsg, GrapheneBlockMsg,
    GrapheneRecoveryMsg, GrapheneRequestMsg, InvMsg, Message,
};
use graphene_wire::{Decode, Encode};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How a relay ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Protocol 1 decoded the block.
    P1,
    /// Protocol 2 decoded it without an extra round.
    P2,
    /// Protocol 2 plus the extra round fetching `R` false positives.
    P2Extra,
    /// Graphene failed and the receiver fetched the full block.
    Fallback,
}

impl Path {
    fn of(outcome: &RelayOutcome) -> Path {
        match outcome {
            RelayOutcome::DecodedP1 => Path::P1,
            RelayOutcome::DecodedP2 { extra_fetch: false } => Path::P2,
            RelayOutcome::DecodedP2 { extra_fetch: true } => Path::P2Extra,
            RelayOutcome::Failed { .. } => Path::Fallback,
        }
    }
}

/// What `relay_block` returned for one case; every later relay of the
/// case must repeat it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// How the relay ended.
    pub path: Path,
    /// `RelayReport::rounds`.
    pub rounds: u32,
    /// `ByteBreakdown::total_excluding_txns`.
    pub bytes: usize,
}

/// Check one `relay_block` report against the case (and against the
/// case's first report, when there is one).
pub fn check_report(
    case: &RelayCase,
    r: &RelayReport,
    want: Option<&Expected>,
) -> Result<Expected, String> {
    let got = Expected {
        path: Path::of(&r.outcome),
        rounds: r.rounds,
        bytes: r.bytes.total_excluding_txns(),
    };
    check_ids(case, got.path, r.ordered_ids.as_deref())?;
    if let Some(want) = want {
        if *want != got {
            return Err(format!(
                "block {}: relay_block changed its result between runs: {want:?} then {got:?}",
                case.block.id()
            ));
        }
    }
    Ok(got)
}

fn check_ids(case: &RelayCase, path: Path, ids: Option<&[TxId]>) -> Result<(), String> {
    match (path, ids) {
        (Path::Fallback, None) => Ok(()),
        (Path::Fallback, Some(_)) => {
            Err(format!("block {}: a failed relay returned ids", case.block.id()))
        }
        (_, Some(ids)) if ids == case.ids.as_slice() => Ok(()),
        (_, _) => Err(format!(
            "block {}: a successful relay did not reconstruct block.ids() ({path:?})",
            case.block.id()
        )),
    }
}

/// Relay every case once through `relay_block`, checking each output;
/// the results are the reference later relays must repeat.
pub fn reference_pass(cases: &[RelayCase], cfg: &GrapheneConfig) -> Result<Vec<Expected>, String> {
    cases
        .iter()
        .map(|c| check_report(c, &relay_block(&c.block, None, &c.mempool, cfg), None))
        .collect()
}

/// Exact end-to-end figures over one pass of the cases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PassTotals {
    /// Mean `total_excluding_txns`.
    pub bytes_per_block: f64,
    /// Mean wire messages per relay: `2 · rounds − 1` (inv, getdata and
    /// one request/response pair per further round).
    pub messages_per_block: f64,
    /// Relays that ended in the full-block fallback, over relays.
    pub fallback_rate: f64,
}

/// Aggregate a reference pass.
pub fn totals(expected: &[Expected]) -> PassTotals {
    let n = expected.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Expected) -> f64| expected.iter().map(f).sum::<f64>() / n;
    PassTotals {
        bytes_per_block: sum(&|e| e.bytes as f64),
        messages_per_block: sum(&|e| (2 * e.rounds - 1) as f64),
        fallback_rate: sum(&|e| (e.path == Path::Fallback) as u8 as f64),
    }
}

/// Timings of the untraced closed loop.
pub struct LoopTimes {
    /// Wall time of each relay, µs.
    pub relay_us: Vec<f64>,
    /// When each relay (and its check) finished, from the loop's start.
    pub done_at: Vec<Duration>,
}

impl LoopTimes {
    /// Relays completed per second: the median over [`RATE_WINDOWS`]
    /// consecutive windows of equal relay count, each timed from the end
    /// of the window before it. The median keeps a burst of interference
    /// from the rest of the host inside the windows it hit.
    pub fn relays_per_s(&self) -> f64 {
        let per = self.done_at.len() / RATE_WINDOWS;
        if per == 0 {
            let total = self.done_at.last().copied().unwrap_or_default();
            return self.done_at.len() as f64 / total.as_secs_f64();
        }
        let mut rates: Vec<f64> = (0..RATE_WINDOWS)
            .map(|w| {
                let from = if w == 0 { Duration::ZERO } else { self.done_at[w * per - 1] };
                per as f64 / (self.done_at[(w + 1) * per - 1] - from).as_secs_f64()
            })
            .collect();
        median(&mut rates)
    }
}

/// Windows [`LoopTimes::relays_per_s`] splits a loop into.
pub const RATE_WINDOWS: usize = 20;

/// The closed loop: relay case after case (cycling) until `budget` has
/// passed and at least `min_relays` relays ran. Every relay is checked
/// against its case's reference result.
pub fn closed_loop(
    cases: &[RelayCase],
    expected: &[Expected],
    cfg: &GrapheneConfig,
    budget: Duration,
    min_relays: usize,
) -> Result<LoopTimes, String> {
    let (mut relay_us, mut done_at) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while relay_us.len() < min_relays || start.elapsed() < budget {
        let case = &cases[i % cases.len()];
        let t = Instant::now();
        let r = relay_block(black_box(&case.block), None, black_box(&case.mempool), cfg);
        let dt = t.elapsed();
        check_report(case, &r, Some(&expected[i % cases.len()]))?;
        relay_us.push(us(dt));
        done_at.push(start.elapsed());
        i += 1;
    }
    Ok(LoopTimes { relay_us, done_at })
}

/// Wire encode/decode totals of one traced relay.
#[derive(Default)]
struct Wire {
    encode: Duration,
    decode: Duration,
    bytes: usize,
}

impl Wire {
    /// Encode `msg` into a frame and decode the frame back, as the two
    /// ends of a socket would.
    fn round_trip(&mut self, msg: Message) -> Result<Message, String> {
        let t = Instant::now();
        let frame = msg.to_vec();
        self.encode += t.elapsed();
        self.bytes += frame.len();
        let t = Instant::now();
        let back = Message::decode_exact(&frame);
        self.decode += t.elapsed();
        back.map_err(|e| format!("a 0x{:02x} frame did not decode: {e}", msg.type_byte()))
    }
}

fn timed<T>(slot: &mut Option<Duration>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *slot = Some(slot.unwrap_or_default() + t.elapsed());
    v
}

/// Per-step wall times of one traced relay (`None`: the step did not run).
#[derive(Default)]
struct Steps {
    p1_encode: Option<Duration>,
    p1_decode: Option<Duration>,
    p2_request: Option<Duration>,
    /// `sender_respond`, plus the sender's short-ID lookup of the extra round.
    p2_respond: Option<Duration>,
    /// `receiver_complete`, plus `finalize_p2` after the extra round.
    p2_complete: Option<Duration>,
}

/// One relay driven step by step.
struct Traced {
    path: Path,
    rounds: u32,
    ordered_ids: Option<Vec<TxId>>,
    steps: Steps,
    wire: Wire,
    /// The Protocol 1 message as the receiver decoded it.
    p1: GrapheneBlockMsg,
    /// The Protocol 2 request and response, when Protocol 2 ran.
    p2: Option<(GrapheneRequestMsg, GrapheneRecoveryMsg)>,
}

macro_rules! expect_msg {
    ($msg:expr, $variant:ident) => {
        match $msg {
            Message::$variant(m) => m,
            other => return Err(format!("frame decoded to 0x{:02x}", other.type_byte())),
        }
    };
}

/// Drive one relay through the public protocol steps, in the order and
/// with the inputs `relay_block` uses (sender without a peer view, the
/// receiver's exact mempool size), but over real wire frames.
#[allow(clippy::result_large_err)] // `receiver_decode`'s Err carries Protocol 2's state by design
fn traced_relay(case: &RelayCase, cfg: &GrapheneConfig) -> Result<Traced, String> {
    let block = &case.block;
    let block_id = block.id();
    let m = case.mempool.len();
    let mut steps = Steps::default();
    let mut wire = Wire::default();

    wire.round_trip(Message::Inv(InvMsg { block_id }))?;
    wire.round_trip(Message::GetData(GetDataMsg { block_id, mempool_count: m as u64 }))?;
    let (msg, _) =
        timed(&mut steps.p1_encode, || protocol1::sender_encode(block, m as u64, None, cfg));
    let p1 = expect_msg!(wire.round_trip(Message::GrapheneBlock(msg))?, GrapheneBlock);
    let decoded =
        timed(&mut steps.p1_decode, || protocol1::receiver_decode(&p1, &case.mempool, cfg));
    let mut state: CandidateSet = match decoded {
        Ok(ok) => {
            let ids = Some(ok.ordered_ids);
            return Ok(Traced {
                path: Path::P1,
                rounds: 2,
                ordered_ids: ids,
                steps,
                wire,
                p1,
                p2: None,
            });
        }
        Err((_, state)) => state,
    };

    let n = p1.block_tx_count as usize;
    let (req, _) =
        timed(&mut steps.p2_request, || protocol2::receiver_request(&state, block_id, n, m, cfg));
    let req = expect_msg!(wire.round_trip(Message::GrapheneRequest(req))?, GrapheneRequest);
    let rec = timed(&mut steps.p2_respond, || protocol2::sender_respond(block, &req, m, cfg));
    let rec = expect_msg!(wire.round_trip(Message::GrapheneRecovery(rec))?, GrapheneRecovery);
    let root = p1.header.merkle_root;
    let done = timed(&mut steps.p2_complete, || {
        protocol2::receiver_complete(&mut state, &rec, root, &p1.order_bytes, cfg)
    });

    let (path, rounds, ordered_ids) = match done {
        Ok(ok) if ok.needs_fetch.is_empty() => (Path::P2, 3, ok.ordered_ids),
        Ok(ok) => {
            // The extra round: fetch the R false positives by short ID.
            let get = Message::GetGrapheneTxn(GetGrapheneTxnMsg {
                block_id,
                short_ids: ok.needs_fetch.clone(),
            });
            let get = expect_msg!(wire.round_trip(get)?, GetGrapheneTxn);
            let txns = timed(&mut steps.p2_respond, || {
                let by_short: HashMap<u64, _> =
                    block.txns().iter().map(|tx| (short_id_8(tx.id()), tx)).collect();
                get.short_ids
                    .iter()
                    .filter_map(|s| by_short.get(s).map(|tx| (*tx).clone()))
                    .collect()
            });
            let reply = Message::BlockTxn(BlockTxnMsg { block_id, txns });
            let reply = expect_msg!(wire.round_trip(reply)?, BlockTxn);
            if reply.txns.len() != get.short_ids.len() {
                (Path::Fallback, 4, None)
            } else {
                let mut resolved = ok.resolved;
                let fin = timed(&mut steps.p2_complete, || {
                    for tx in &reply.txns {
                        resolved.insert(short_id_8(tx.id()), *tx.id());
                    }
                    protocol2::finalize_p2(&resolved, root, &p1.order_bytes, cfg)
                });
                match fin {
                    Ok(ok) => (Path::P2Extra, 4, ok.ordered_ids),
                    Err(_) => (Path::Fallback, 4, None),
                }
            }
        }
        Err(_) => (Path::Fallback, 3, None),
    };
    let rounds = if path == Path::Fallback {
        wire.round_trip(Message::GetFullBlock(GetFullBlockMsg { block_id }))?;
        let full = FullBlockMsg { header: *block.header(), txns: block.txns().to_vec() };
        wire.round_trip(Message::FullBlock(full))?;
        rounds + 1
    } else {
        rounds
    };
    Ok(Traced { path, rounds, ordered_ids, steps, wire, p1, p2: Some((req, rec)) })
}

/// Kernel timings on one traced relay's inputs.
struct Kernels {
    merkle: Duration,
    leaves: usize,
    s_probe: Duration,
    s_probes: usize,
    r_insert: Option<Duration>,
    peel: Duration,
    peel_ok: bool,
    confirm: Duration,
}

/// Time the kernels that are not a protocol step of their own, on the
/// relay's own inputs, and check that the replays reproduce what the
/// relay sent.
fn replay_kernels(
    case: &RelayCase,
    tr: &Traced,
    probe: &mut ProbeScratch,
) -> Result<Kernels, String> {
    let t = Instant::now();
    black_box(merkle_root(black_box(&case.ids)));
    let merkle = t.elapsed();

    // The receiver's S probe over its whole mempool, in the order
    // `receiver_decode` probes it.
    let pool_ids: Vec<TxId> = case.mempool.iter().map(|tx| *tx.id()).collect();
    let mut hits = BitVec::new(pool_ids.len());
    let t = Instant::now();
    tr.p1.bloom_s.contains_batch_with(black_box(&pool_ids), &mut hits, probe);
    let s_probe = t.elapsed();
    let candidates: Vec<TxId> = pool_ids
        .iter()
        .enumerate()
        .filter(|(j, _)| hits.get(*j))
        .map(|(_, id)| *id)
        .chain(tr.p1.prefilled.iter().map(|tx| *tx.id()))
        .collect();

    let mut r_insert = None;
    let (diff, local): (&Iblt, HashSet<u64>) = match &tr.p2 {
        None => (&tr.p1.iblt_i, candidates.iter().map(short_id_8).collect()),
        Some((req, rec)) => {
            // Bloom R over the candidate set, rebuilt into an empty filter
            // of the request's geometry.
            let r = &req.bloom_r;
            let mut mine = BloomFilter::from_parts(
                BitVec::new(r.bit_len()),
                r.hash_count(),
                0.0,
                r.salt(),
                r.strategy(),
            );
            let t = Instant::now();
            mine.insert_batch(black_box(&candidates));
            r_insert = Some(t.elapsed());
            if mine.bit_vec() != r.bit_vec() {
                return Err(format!("block {}: replayed Bloom R differs", case.block.id()));
            }
            // J′ covers the candidates (re-filtered through F in the
            // m ≈ n case) plus the delivered transactions.
            let kept: Vec<TxId> = match &rec.bloom_f {
                Some(f) => {
                    let hits = f.contains_batch(&candidates);
                    candidates
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| hits.get(*j))
                        .map(|(_, id)| *id)
                        .collect()
                }
                None => candidates.clone(),
            };
            let local =
                kept.iter().chain(rec.missing.iter().map(|tx| tx.id())).map(short_id_8).collect();
            (&rec.iblt_j, local)
        }
    };
    let mut prime = Iblt::new(diff.cell_count(), diff.hash_count(), diff.salt());
    for s in &local {
        prime.insert(*s);
    }
    let t = Instant::now();
    prime.subtract_from(diff).map_err(|e| format!("replayed IBLT geometry: {e:?}"))?;
    let peeled = prime.peel();
    let peel = t.elapsed();
    let peel_ok = matches!(peeled, Ok(ref r) if r.complete);

    // The receiver confirms the block on a mempool that still shares its
    // storage with another holder, so the confirm pays the copy-on-write.
    let mut shared = case.mempool.clone();
    let t = Instant::now();
    shared.confirm(black_box(&case.ids));
    let confirm = t.elapsed();
    if case.ids.iter().any(|id| shared.contains(id)) {
        return Err(format!("block {}: confirm left block txns in the mempool", case.block.id()));
    }

    Ok(Kernels {
        merkle,
        leaves: case.ids.len(),
        s_probe,
        s_probes: pool_ids.len(),
        r_insert,
        peel,
        peel_ok,
        confirm,
    })
}

/// Per-layer timings a traced relay reports: median over the relays on
/// which the step or kernel ran, 0 when it never ran.
const TIMED: &[&str] = &[
    "hashes.merkle_us",
    "bloom.s_probe_us",
    "bloom.r_insert_us",
    "iblt.peel_us",
    "core.p1_encode_us",
    "core.p1_decode_us",
    "core.p2_request_us",
    "core.p2_respond_us",
    "core.p2_complete_us",
    "wire.encode_us",
    "wire.decode_us",
    "blockchain.confirm_us",
];

/// What the traced phase adds to the report besides the per-layer metrics.
pub struct TracedPhase {
    /// Traced relays run.
    pub relays: u64,
    /// Median wall time of a traced relay (steps and wire, not the kernel
    /// replays), µs.
    pub traced_p50_us: f64,
}

/// The traced phase: drive relays step by step, cycling over `cases`,
/// until `budget` has passed and every case ran at least once. Each
/// traced relay must repeat its case's reference result.
///
/// Records the `hashes`, `bloom`, `iblt`, `core`, `wire` and `blockchain`
/// metrics in `r`: timings as medians (see [`TIMED`]), sizes, counts and
/// rates as means over exactly one pass of the cases, so that they are
/// deterministic for a seed.
pub fn traced_phase(
    cases: &[RelayCase],
    expected: &[Expected],
    cfg: &GrapheneConfig,
    budget: Duration,
    r: &mut Report,
) -> Result<TracedPhase, String> {
    let mut timed: BTreeMap<&'static str, Vec<f64>> =
        TIMED.iter().map(|n| (*n, Vec::new())).collect();
    let mut sample = |name: &'static str, d: Option<Duration>| {
        if let (Some(d), Some(v)) = (d, timed.get_mut(name)) {
            v.push(us(d));
        }
    };
    let mut walls = Vec::new();
    let mut one_pass: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut probe = ProbeScratch::default();
    let start = Instant::now();
    let mut i = 0;
    while i < cases.len() || start.elapsed() < budget {
        let case = &cases[i % cases.len()];
        let want = &expected[i % cases.len()];
        let t = Instant::now();
        let tr = traced_relay(case, cfg)?;
        walls.push(us(t.elapsed()));
        if tr.path != want.path || tr.rounds != want.rounds {
            return Err(format!(
                "block {}: traced relay ended {:?} in {} rounds, relay_block {:?} in {}",
                case.block.id(),
                tr.path,
                tr.rounds,
                want.path,
                want.rounds
            ));
        }
        check_ids(case, tr.path, tr.ordered_ids.as_deref())?;
        let k = replay_kernels(case, &tr, &mut probe)?;

        sample("hashes.merkle_us", Some(k.merkle));
        sample("bloom.s_probe_us", Some(k.s_probe));
        sample("bloom.r_insert_us", k.r_insert);
        sample("iblt.peel_us", Some(k.peel));
        sample("core.p1_encode_us", tr.steps.p1_encode);
        sample("core.p1_decode_us", tr.steps.p1_decode);
        sample("core.p2_request_us", tr.steps.p2_request);
        sample("core.p2_respond_us", tr.steps.p2_respond);
        sample("core.p2_complete_us", tr.steps.p2_complete);
        sample("wire.encode_us", Some(tr.wire.encode));
        sample("wire.decode_us", Some(tr.wire.decode));
        sample("blockchain.confirm_us", Some(k.confirm));
        if i < cases.len() {
            let (r_bytes, j_bytes) = match &tr.p2 {
                Some((req, rec)) => (req.bloom_r.serialized_size(), rec.iblt_j.serialized_size()),
                None => (0, 0),
            };
            let share = |yes: bool| f64::from(u8::from(yes));
            for (name, v) in [
                ("hashes.merkle_leaves", k.leaves as f64),
                ("bloom.s_probes", k.s_probes as f64),
                ("bloom.s_bytes", tr.p1.bloom_s.serialized_size() as f64),
                ("bloom.r_bytes", r_bytes as f64),
                ("iblt.i_bytes", tr.p1.iblt_i.serialized_size() as f64),
                ("iblt.j_bytes", j_bytes as f64),
                ("iblt.peel_ok_rate", share(k.peel_ok)),
                ("core.p1_ok_rate", share(tr.path == Path::P1)),
                ("core.extra_fetch_rate", share(tr.path == Path::P2Extra)),
                ("core.rounds_per_block", f64::from(tr.rounds)),
                ("core.fallback_rate", share(tr.path == Path::Fallback)),
                ("wire.frame_bytes", tr.wire.bytes as f64),
            ] {
                *one_pass.entry(name).or_default() += v;
            }
        }
        i += 1;
    }
    for (name, mut v) in timed {
        r.set(name, median(&mut v));
    }
    for (name, sum) in one_pass {
        r.set(name, sum / cases.len() as f64);
    }
    Ok(TracedPhase { relays: i as u64, traced_p50_us: median(&mut walls) })
}
