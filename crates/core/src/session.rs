//! A complete two-party Graphene relay with exact byte accounting.
//!
//! This is the in-process driver of the [`Receiver`] machine: one loop
//! steps the receiver through Protocols 1 and 2, the extra-fetch round for
//! `R` false positives and, under a recovery ladder, every later rung,
//! answering each step with the sender functions and producing the
//! per-message byte breakdown that the paper's figures plot. The
//! underlying wire encodings come from `graphene-wire`, so every byte
//! counted here is a byte a real socket would carry.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::config::GrapheneConfig;
use crate::encode_cache::EncodeCache;
use crate::error::P2Failure;
use crate::protocol1::{self, RetryTweak};
use crate::protocol2;
use crate::receiver::{Input, Receiver, RxEnv, Step};
use crate::recovery::{
    rateless_cells, shortid_rung, Ladder, LadderReport, RecoveryPolicy, RungFailure, RungKind,
    RungReport,
};
use graphene_blockchain::{Block, Mempool, PeerView, Transaction, TxId};
use graphene_bloom::Membership;
use graphene_hashes::short_id_8;
use graphene_wire::messages::{
    BlockTxnMsg, FullBlockMsg, GetFullBlockMsg, GetGrapheneTxnMsg, InvMsg, Message,
};
use graphene_wire::varint::varint_len;
use std::collections::HashMap;

/// The durable half of a node's relay state: what survives a crash.
///
/// Deployed clients persist the mempool and the accepted chain to disk;
/// everything receiver-side that belongs to an *in-flight* reconciliation —
/// the Protocol 1 [`CandidateSet`](crate::protocol1::CandidateSet), partial
/// short-ID resolutions, collected-but-unconfirmed bodies, retry timers —
/// is process memory and is lost on restart. This type encodes that split:
/// a crashed node restores from a `NodeSnapshot` and re-learns any block it
/// was mid-session on through the ordinary announcement path, never by
/// resuming decode state.
#[derive(Clone, Debug, Default)]
pub struct NodeSnapshot {
    /// Unconfirmed transactions at snapshot time.
    pub mempool: Mempool,
    /// Fully validated blocks held at snapshot time.
    pub blocks: Vec<Block>,
}

impl NodeSnapshot {
    /// Drop every mempool transaction `keep` rejects — the "stale mempool"
    /// of a node rejoining after downtime (its pool aged out or was only
    /// partially flushed to disk). Deterministic given a deterministic
    /// predicate; accepted blocks are never trimmed.
    pub fn retain_mempool(&mut self, keep: impl Fn(&TxId) -> bool) {
        let drop: Vec<TxId> =
            self.mempool.iter().map(|tx| *tx.id()).filter(|id| !keep(id)).collect();
        for id in &drop {
            self.mempool.remove(id);
        }
    }
}

/// How the relay concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayOutcome {
    /// Protocol 1 sufficed (the common case, Fig. 12's 99.7%).
    DecodedP1,
    /// Protocol 2 recovered the block.
    DecodedP2 {
        /// Whether an extra round fetched `R` false positives.
        extra_fetch: bool,
    },
    /// Both protocols failed; the relay fell back to a full block.
    Failed {
        /// The failure that ended the attempt.
        p2: P2Failure,
        /// Bytes the fallback actually cost (full block + framing).
        fallback_bytes: usize,
    },
}

impl RelayOutcome {
    /// True if the block was reconstructed (by either protocol).
    pub fn is_success(&self) -> bool {
        !matches!(self, RelayOutcome::Failed { .. })
    }
}

/// Byte-level breakdown per message component (Fig. 17's categories).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteBreakdown {
    /// Block announcement.
    pub inv: usize,
    /// `getdata` with mempool count.
    pub getdata: usize,
    /// Bloom filter `S` payload.
    pub bloom_s: usize,
    /// IBLT `I` payload.
    pub iblt_i: usize,
    /// Prefilled (never-inv'd) transactions in the Protocol 1 message.
    pub prefilled: usize,
    /// Ordering permutation bytes (zero under CTOR).
    pub order: usize,
    /// Residual Protocol 1 framing (header, counts).
    pub p1_overhead: usize,
    /// Bloom filter `R` payload (Protocol 2 request).
    pub bloom_r: usize,
    /// Residual Protocol 2 request framing.
    pub p2_request_overhead: usize,
    /// Missing transactions shipped in the recovery message.
    pub missing_txns: usize,
    /// IBLT `J` payload.
    pub iblt_j: usize,
    /// Filter `F` (`m ≈ n` special case only).
    pub bloom_f: usize,
    /// Residual recovery framing.
    pub p2_response_overhead: usize,
    /// The extra round fetching `R` false positives by short ID.
    pub extra_fetch: usize,
    /// Rateless-rung structural bytes: coded-cell windows and their
    /// requests (bodies fetched afterwards land in `missing_txns`).
    pub rateless: usize,
    /// Structural bytes of non-Graphene fallback rungs (short-ID fetch or
    /// full block, including framing; bodies land in `missing_txns`).
    pub fallback: usize,
}

impl ByteBreakdown {
    /// Sum of every component.
    pub fn total(&self) -> usize {
        self.inv
            + self.getdata
            + self.bloom_s
            + self.iblt_i
            + self.prefilled
            + self.order
            + self.p1_overhead
            + self.bloom_r
            + self.p2_request_overhead
            + self.missing_txns
            + self.iblt_j
            + self.bloom_f
            + self.p2_response_overhead
            + self.extra_fetch
            + self.rateless
            + self.fallback
    }

    /// Total excluding transaction bodies — the quantity Figs. 14/17/18
    /// plot ("we exclude the cost of sending the missing transactions
    /// themselves for both protocols").
    pub fn total_excluding_txns(&self) -> usize {
        self.total() - self.missing_txns - self.prefilled
    }
}

/// Result of a relay attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayReport {
    /// How it ended.
    pub outcome: RelayOutcome,
    /// Network round trips used (1 = Protocol 1 only; each additional
    /// protocol phase adds one).
    pub rounds: u32,
    /// Exact bytes by component.
    pub bytes: ByteBreakdown,
    /// The reconstructed block-order transaction IDs (when successful).
    pub ordered_ids: Option<Vec<TxId>>,
}

/// Relay `block` from a sender to a receiver holding `receiver_mempool`.
///
/// `peer` optionally carries the sender's inv log for this receiver
/// (enables prefilling). The exchange is simulated in-process but every
/// message is sized through its real wire encoding.
///
/// ```
/// use graphene::{relay_block, GrapheneConfig};
/// use graphene_blockchain::{Block, Mempool, OrderingScheme, Transaction};
/// use graphene_hashes::Digest;
///
/// let txns: Vec<Transaction> = (0..100u64)
///     .map(|i| Transaction::new(i.to_le_bytes().to_vec()))
///     .collect();
/// let block = Block::assemble(Digest::ZERO, 0, txns.clone(), OrderingScheme::Ctor);
/// let mempool: Mempool = txns.into_iter().collect();
///
/// let report = relay_block(&block, None, &mempool, &GrapheneConfig::default());
/// assert!(report.outcome.is_success());
/// assert!(report.bytes.total_excluding_txns() < 6 * 100); // beats Compact Blocks
/// ```
pub fn relay_block(
    block: &Block,
    peer: Option<&PeerView>,
    receiver_mempool: &Mempool,
    cfg: &GrapheneConfig,
) -> RelayReport {
    one_attempt(relay(block, peer, receiver_mempool, cfg, Encoding::PerReceiver, None))
}

/// [`relay_block`] through the encode-once relay cache.
///
/// The Protocol 1 frame is encoded (or served) at the canonical `m` of the
/// receiver's mempool-size bucket — see
/// [`sender_encode_cached`](protocol1::sender_encode_cached) — so every
/// receiver in a size class observes a byte-identical frame. With
/// `cache: None` the same canonical encoding is performed fresh, making
/// this the uncached oracle the equivalence tests compare against.
pub fn relay_block_cached(
    block: &Block,
    peer: Option<&PeerView>,
    receiver_mempool: &Mempool,
    cfg: &GrapheneConfig,
    cache: Option<&EncodeCache>,
) -> RelayReport {
    one_attempt(relay(block, peer, receiver_mempool, cfg, Encoding::Bucketed(cache), None))
}

/// The full-block round trip: its wire bytes, and the framed bodies
/// within them.
pub(crate) fn full_block_round(block: &Block) -> (usize, usize) {
    let get = Message::GetFullBlock(GetFullBlockMsg { block_id: block.id() }).wire_size();
    let full =
        Message::FullBlock(FullBlockMsg { header: *block.header(), txns: block.txns().to_vec() })
            .wire_size();
    (get + full, body_bytes(block.txns()))
}

/// Wire bytes of transaction bodies as messages carry them (each one
/// length-prefixed).
pub(crate) fn body_bytes<'a>(txns: impl IntoIterator<Item = &'a Transaction>) -> usize {
    txns.into_iter().map(|tx| varint_len(tx.size() as u64) + tx.size()).sum()
}

/// The sender's answer to a short-ID fetch: `block`'s transactions whose
/// 8-byte short IDs appear in `short_ids`, in request order. Unknown IDs
/// are skipped, so a short answer tells the receiver something collided.
pub fn block_txns_by_short_id(block: &Block, short_ids: &[u64]) -> Vec<Transaction> {
    let lookup: HashMap<u64, &Transaction> =
        block.txns().iter().map(|tx| (short_id_8(tx.id()), tx)).collect();
    short_ids.iter().filter_map(|s| lookup.get(s).map(|tx| (*tx).clone())).collect()
}

/// One short-ID fetch round trip (`GetGrapheneTxn` → `BlockTxn`), sized
/// through the real wire encoding.
pub(crate) struct FetchRound {
    /// The transactions the sender found, in request order.
    pub txns: Vec<Transaction>,
    /// Bytes of the request and the response, bodies included.
    pub wire: usize,
    /// Framed bodies within `wire`.
    pub bodies: usize,
}

impl FetchRound {
    /// Fetch `short_ids` from `block`.
    pub(crate) fn run(block: &Block, short_ids: &[u64]) -> FetchRound {
        let block_id = block.id();
        let req =
            Message::GetGrapheneTxn(GetGrapheneTxnMsg { block_id, short_ids: short_ids.to_vec() });
        let txns = block_txns_by_short_id(block, short_ids);
        let resp = Message::BlockTxn(BlockTxnMsg { block_id, txns: txns.clone() });
        let bodies = body_bytes(&txns);
        FetchRound { txns, wire: req.wire_size() + resp.wire_size(), bodies }
    }
}

/// A Graphene server's answer to a request on the rungs after Protocol 1 —
/// a retry, Protocol 2, an extra fetch, a cell window — for both drivers.
/// `m` is the receiver's mempool size as the server knows it and `peer` its
/// inv log, for prefilling a retry. `None` for anything else (the
/// Protocol 1 frame is the caller's to encode, perhaps from the relay
/// cache).
///
/// Retries and cell windows never touch the relay cache, and count as
/// bypasses: a retry exists to re-encode with fresh salts after a failed
/// decode (serving the cached attempt-0 frame would replay the very salts
/// that just failed), and every window request names cells the receiver
/// has not consumed. Protocol 2's answer depends on the receiver's `R`, so
/// it bypasses the cache too.
pub fn serve(
    block: &Block,
    req: &Message,
    m: usize,
    peer: Option<&PeerView>,
    cfg: &GrapheneConfig,
    cache: Option<&EncodeCache>,
) -> Option<Message> {
    let bypass = || cache.inspect(|c| c.note_bypass());
    Some(match req {
        Message::GetGrapheneRetry(r) => {
            bypass();
            let tweak = RetryTweak::for_attempt(cfg, r.attempt);
            let (msg, _) =
                protocol1::sender_encode_retry(block, r.mempool_count, peer, cfg, &tweak);
            Message::GrapheneBlock(msg)
        }
        Message::GrapheneRequest(r) => {
            Message::GrapheneRecovery(protocol2::sender_respond_cached(block, r, m, cfg, cache))
        }
        Message::GetGrapheneTxn(r) => Message::BlockTxn(BlockTxnMsg {
            block_id: r.block_id,
            txns: block_txns_by_short_id(block, &r.short_ids),
        }),
        Message::GetMoreCells(r) => {
            bypass();
            Message::RatelessCells(rateless_cells(block, r))
        }
        _ => return None,
    })
}

/// How the in-process sender encodes Protocol 1: for the receiver's exact
/// `m` (the paper's two-party session; byte counts match the figures), or
/// for the canonical `m` of its bucket, through the relay cache if given.
#[derive(Clone, Copy)]
pub(crate) enum Encoding<'a> {
    PerReceiver,
    Bucketed(Option<&'a EncodeCache>),
}

/// The one-attempt client's view of a relay: a failed attempt reports the
/// full block's cost as its fallback, and no ids.
fn one_attempt((mut outcome, ladder): (RelayOutcome, LadderReport)) -> RelayReport {
    let ordered_ids = match &mut outcome {
        RelayOutcome::Failed { fallback_bytes, .. } => {
            *fallback_bytes = ladder.rungs.last().map_or(0, |r| r.bytes);
            None
        }
        _ => Some(ladder.ordered_ids),
    };
    RelayReport { outcome, rounds: ladder.rounds, bytes: ladder.bytes, ordered_ids }
}

/// Relay `block` in-process: a sender and a [`Receiver`] in one loop, the
/// sender answering each step with the protocol's own functions and every
/// message sized through its real wire encoding. `policy` is the recovery
/// ladder to descend; without one the client takes the full block straight
/// after its one Graphene attempt (the paper's client, Figs. 12–17).
/// Returns how that first attempt ended, and the whole descent.
pub(crate) fn relay(
    block: &Block,
    peer: Option<&PeerView>,
    mempool: &Mempool,
    cfg: &GrapheneConfig,
    encoding: Encoding<'_>,
    policy: Option<&RecoveryPolicy>,
) -> (RelayOutcome, LadderReport) {
    let (mut rx, mut bytes) = (Receiver::new(block.id()), ByteBreakdown::default());
    let (mut rungs, mut rounds, mut first) = (Vec::new(), 0, None);
    let mut at = Ladder::START;
    loop {
        let before = bytes.total();
        let mut report =
            RungReport { kind: at.rung, attempt: 0, bytes: 0, rounds: 0, success: false };
        let result = match at.rung {
            RungKind::ShortIdFetch => {
                let policy = policy.copied().unwrap_or_default();
                shortid_rung(block, mempool, &policy, &mut bytes, &mut report)
                    .map(|ids| (ids, RelayOutcome::DecodedP1))
                    .ok_or((RungFailure::Failed, P2Failure::IbltIncomplete))
            }
            RungKind::FullBlock => {
                // The uncompressed block. Cannot fail.
                let (wire, bodies) = full_block_round(block);
                bytes.fallback += wire - bodies;
                bytes.missing_txns += bodies;
                report.rounds = 1;
                Ok((block.ids(), RelayOutcome::DecodedP1))
            }
            // A Graphene rung (an attempt, or the whole rateless stream):
            // step the receiver, answering each request, until it delivers
            // the block or the rung stops.
            _ => {
                let rateless = at.rung == RungKind::Rateless;
                let tweak = RetryTweak::for_attempt(cfg, if rateless { 0 } else { at.retries });
                // Downstream sizing (x*, y*, b) uses the attempt's decayed β
                // too, so the whole rung is more forgiving, not just the filter.
                let cfg = &GrapheneConfig { beta: tweak.beta, ..*cfg };
                let env = RxEnv { mempool, cfg, rateless_cap: u64::MAX };
                if !rateless {
                    // The announcement (or re-request) round.
                    (report.attempt, report.rounds) = (at.retries, 1);
                    if at == Ladder::START {
                        bytes.inv = Message::Inv(InvMsg { block_id: block.id() }).wire_size();
                    }
                }
                let mut how = RelayOutcome::DecodedP1;
                let mut step = rx.step(Input::Rung(at), &env);
                loop {
                    let req = match step {
                        // A malformed Protocol 1 message still goes on to
                        // Protocol 2 here: the sender is our own.
                        Step::Send(req) | Step::Malformed { resume: Some(req), .. } => req,
                        Step::Done { checked, .. } => break Ok((checked.into_ids(), how)),
                        // A window that did not decode: one more, while the
                        // rung's budget lasts.
                        Step::Failed { why: RungFailure::Failed, .. }
                            if rateless
                                && policy
                                    .and_then(|p| rx.next(at, p, RungFailure::Failed))
                                    .is_some_and(|next| next.rung == RungKind::Rateless) =>
                        {
                            at.retries += 1;
                            step = rx.step(Input::Rung(at), &env);
                            continue;
                        }
                        Step::Failed { why, cause } => break Err((why, cause)),
                        Step::Malformed { why, .. } => {
                            break Err((RungFailure::Failed, P2Failure::Malformed(why)))
                        }
                        Step::Ignore => {
                            break Err((RungFailure::Abandoned, P2Failure::IbltIncomplete))
                        }
                    };
                    report.rounds += 1;
                    let reply = answer(&req, block, peer, mempool.len(), encoding, cfg, &tweak);
                    let Some(reply) = reply else {
                        break Err((RungFailure::Abandoned, P2Failure::IbltIncomplete));
                    };
                    charge(&mut bytes, &req, &reply, rateless);
                    step = match &reply {
                        Message::GrapheneBlock(m) => rx.step(Input::Block(m, block.id()), &env),
                        Message::GrapheneRecovery(m) => {
                            how = RelayOutcome::DecodedP2 { extra_fetch: false };
                            rx.step(Input::Recovery(m), &env)
                        }
                        Message::BlockTxn(m) => {
                            how = RelayOutcome::DecodedP2 { extra_fetch: true };
                            rx.step(Input::Txns(m), &env)
                        }
                        Message::RatelessCells(m) => rx.step(Input::Cells(m), &env),
                        _ => Step::Ignore,
                    };
                }
            }
        };
        report.bytes = bytes.total() - before;
        report.success = result.is_ok();
        rounds += report.rounds;
        rungs.push(report);
        let why = match result {
            Ok((ordered_ids, how)) => {
                let ladder = LadderReport { delivered: at.rung, rungs, bytes, rounds, ordered_ids };
                return (first.unwrap_or(how), ladder);
            }
            Err((why, p2)) => {
                first.get_or_insert(RelayOutcome::Failed { p2, fallback_bytes: 0 });
                why
            }
        };
        // Without a ladder, or past its last rung, the full block.
        at = policy
            .and_then(|p| rx.next(at, p, why))
            .unwrap_or(Ladder { rung: RungKind::FullBlock, retries: 0 });
    }
}

/// The in-process sender: Protocol 1 (or its retry) encoded as `encoding`
/// says, everything else through [`serve`]; the sender remembers the
/// receiver's `m` from its getdata.
fn answer(
    req: &Message,
    block: &Block,
    peer: Option<&PeerView>,
    m: usize,
    encoding: Encoding<'_>,
    cfg: &GrapheneConfig,
    tweak: &RetryTweak,
) -> Option<Message> {
    let cache = match encoding {
        Encoding::PerReceiver => None,
        Encoding::Bucketed(cache) => cache,
    };
    let count = match req {
        Message::GetData(r) => r.mempool_count,
        Message::GetGrapheneRetry(r) => r.mempool_count,
        other => return serve(block, other, m, peer, cfg, cache),
    };
    Some(Message::GrapheneBlock(match encoding {
        Encoding::PerReceiver => protocol1::sender_encode_retry(block, count, peer, cfg, tweak).0,
        Encoding::Bucketed(_) => {
            protocol1::sender_encode_cached(block, count, peer, cfg, tweak, cache).msg
        }
    }))
}

/// Charge one request and its answer to the byte breakdown (Fig. 17's
/// categories). Bodies are split out of the structure metrics into
/// `missing_txns`/`prefilled`.
fn charge(b: &mut ByteBreakdown, req: &Message, reply: &Message, rateless: bool) {
    use graphene_wire::Encode;
    let (req_wire, reply_wire) = (req.wire_size(), reply.wire_size());
    match (req, reply) {
        (_, Message::GrapheneBlock(msg)) => {
            b.getdata += req_wire;
            let bloom_s = msg.bloom_s.encoded_len();
            let iblt_i = msg.iblt_i.serialized_size();
            let prefilled = body_bytes(&msg.prefilled);
            let order = msg.order_bytes.len();
            b.bloom_s += bloom_s;
            b.iblt_i += iblt_i;
            b.prefilled += prefilled;
            b.order += order;
            b.p1_overhead += reply_wire - bloom_s - iblt_i - prefilled - order;
        }
        (Message::GrapheneRequest(r), Message::GrapheneRecovery(rec)) => {
            let bloom_r = r.bloom_r.serialized_size();
            b.bloom_r += bloom_r;
            b.p2_request_overhead += req_wire - bloom_r;
            let missing = body_bytes(&rec.missing);
            let iblt_j = rec.iblt_j.serialized_size();
            let bloom_f = rec.bloom_f.as_ref().map_or(0, |f| f.serialized_size());
            b.missing_txns += missing;
            b.iblt_j += iblt_j;
            b.bloom_f += bloom_f;
            b.p2_response_overhead += reply_wire - missing - iblt_j - bloom_f;
        }
        (_, Message::BlockTxn(resp)) => {
            let bodies = body_bytes(&resp.txns);
            if rateless {
                b.rateless += req_wire + reply_wire - bodies;
            } else {
                b.extra_fetch += req_wire + reply_wire - bodies;
            }
            b.missing_txns += bodies;
        }
        // A coded-cell window and its request.
        _ => b.rateless += req_wire + reply_wire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Scenario, ScenarioParams};
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg() -> GrapheneConfig {
        GrapheneConfig::default()
    }

    fn scenario(n: usize, extra: f64, held: f64, seed: u64) -> Scenario {
        let params = ScenarioParams {
            block_size: n,
            extra_mempool_multiple: extra,
            block_fraction_in_mempool: held,
            ..Default::default()
        };
        Scenario::generate(&params, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn p1_path_report() {
        let s = scenario(500, 2.0, 1.0, 1);
        let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
        assert_eq!(r.outcome, RelayOutcome::DecodedP1);
        assert_eq!(r.rounds, 2);
        assert_eq!(r.ordered_ids.as_deref(), Some(&s.block.ids()[..]));
        assert!(r.bytes.bloom_s > 0);
        assert!(r.bytes.iblt_i > 0);
        assert_eq!(r.bytes.bloom_r, 0);
        // Headline claim sanity: well under Compact Blocks' ~6n bytes.
        assert!(
            r.bytes.total_excluding_txns() < 6 * 500,
            "{} bytes",
            r.bytes.total_excluding_txns()
        );
    }

    #[test]
    fn p2_path_report() {
        let s = scenario(300, 1.0, 0.5, 2);
        let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
        assert!(r.outcome.is_success(), "{:?}", r.outcome);
        assert!(r.rounds >= 3);
        assert!(r.bytes.bloom_r > 0);
        assert!(r.bytes.iblt_j > 0);
        assert!(r.bytes.missing_txns > 0);
        if let Some(ids) = &r.ordered_ids {
            assert_eq!(ids, &s.block.ids());
        }
    }

    #[test]
    fn success_rate_over_many_relays() {
        let mut p1 = 0;
        let mut p2 = 0;
        let mut failed = 0;
        for seed in 0..60u64 {
            let held = if seed % 3 == 0 { 1.0 } else { 0.7 };
            let s = scenario(120, 1.5, held, seed);
            let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
            match r.outcome {
                RelayOutcome::DecodedP1 => p1 += 1,
                RelayOutcome::DecodedP2 { .. } => p2 += 1,
                RelayOutcome::Failed { .. } => failed += 1,
            }
            if let Some(ids) = &r.ordered_ids {
                assert_eq!(ids, &s.block.ids(), "seed {seed}");
            }
        }
        assert!(p1 >= 18, "P1 successes: {p1}");
        assert!(p2 >= 30, "P2 successes: {p2}");
        assert!(failed <= 1, "failures: {failed}");
    }

    #[test]
    fn direct_fetch_skips_protocol2() {
        // A receiver missing a handful of transactions, with an IBLT that
        // still decodes completely: direct fetch must resolve without the
        // Protocol 2 structures and cost less.
        let mut hit = 0usize;
        for seed in 0..40u64 {
            let s = scenario(300, 1.0, 0.99, seed); // missing ~3 of 300
            let mut direct = cfg();
            direct.direct_fetch = true;
            let r_direct = relay_block(&s.block, None, &s.receiver_mempool, &direct);
            let r_paper = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
            assert!(r_direct.outcome.is_success(), "seed {seed}: {:?}", r_direct.outcome);
            if let Some(ids) = &r_direct.ordered_ids {
                assert_eq!(ids, &s.block.ids(), "seed {seed}");
            }
            // Only compare costs when the direct path actually engaged
            // (i.e. the P1 IBLT decoded despite the missing txns).
            if r_direct.bytes.bloom_r == 0 && r_direct.bytes.extra_fetch > 0 {
                hit += 1;
                assert!(
                    r_direct.bytes.total_excluding_txns() < r_paper.bytes.total_excluding_txns(),
                    "seed {seed}: direct {} !< paper {}",
                    r_direct.bytes.total_excluding_txns(),
                    r_paper.bytes.total_excluding_txns()
                );
            }
        }
        assert!(hit >= 20, "direct-fetch path engaged only {hit}/40 times");
    }

    #[test]
    fn failed_relay_accounts_fallback_bytes() {
        // Outright failures need an under-assured config (β low, coarse
        // IBLT table rate, no ping-pong rescue): ~4% of these seeds fail.
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        let mut checked = 0;
        for seed in 0..100u64 {
            let s = scenario(100, 1.0, 0.5, seed);
            let r = relay_block(&s.block, None, &s.receiver_mempool, &flaky);
            if let RelayOutcome::Failed { fallback_bytes, .. } = r.outcome {
                assert!(fallback_bytes > 0, "seed {seed}: zero-cost failure");
                assert!(r.bytes.fallback > 0, "seed {seed}");
                // The fallback round ships every body; totals must reflect it.
                let bodies: usize = s.block.txns().iter().map(|tx| tx.size()).sum();
                assert!(r.bytes.total() > bodies, "seed {seed}");
                // Structure-only metric stays clean of the shipped bodies.
                assert!(r.bytes.total_excluding_txns() < r.bytes.total(), "seed {seed}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no failing seed found; weaken the scenario");
    }

    #[test]
    fn retry_tweak_inflates_and_resalts() {
        let s = scenario(200, 1.5, 0.9, 3);
        let c = cfg();
        let m = s.receiver_mempool.len() as u64;
        let (base, base_choice) = protocol1::sender_encode(&s.block, m, None, &c);
        let t = RetryTweak::for_attempt(&c, 2);
        assert!(t.beta > c.beta);
        let (retry, retry_choice) = protocol1::sender_encode_retry(&s.block, m, None, &c, &t);
        assert_ne!(retry.iblt_i.salt(), base.iblt_i.salt(), "retry must re-salt");
        assert!(
            retry_choice.iblt.c > base_choice.iblt.c,
            "retry IBLT not inflated: {} vs {}",
            retry_choice.iblt.c,
            base_choice.iblt.c
        );
        // The receiver needs no special handling: everything rides in the
        // message.
        let got = protocol1::receiver_decode(&retry, &s.receiver_mempool, &c);
        if let Ok(ok) = got {
            assert_eq!(ok.ordered_ids, s.block.ids());
        }
    }

    #[test]
    fn breakdown_totals_consistent() {
        let s = scenario(200, 1.0, 0.6, 11);
        let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
        let b = &r.bytes;
        assert_eq!(
            b.total(),
            b.inv
                + b.getdata
                + b.bloom_s
                + b.iblt_i
                + b.prefilled
                + b.order
                + b.p1_overhead
                + b.bloom_r
                + b.p2_request_overhead
                + b.missing_txns
                + b.iblt_j
                + b.bloom_f
                + b.p2_response_overhead
                + b.extra_fetch
                + b.rateless
                + b.fallback
        );
        assert!(b.total_excluding_txns() <= b.total());
    }
}
