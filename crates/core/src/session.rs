//! A complete two-party Graphene relay with exact byte accounting.
//!
//! This glues Protocols 1 and 2 (and the extra-fetch round for `R` false
//! positives) into one call, producing the per-message byte breakdown that
//! the paper's figures plot. The underlying wire encodings come from
//! `graphene-wire`, so every byte counted here is a byte a real socket
//! would carry.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::config::GrapheneConfig;
use crate::encode_cache::EncodeCache;
use crate::error::P2Failure;
use crate::protocol1::{self, RetryTweak};
use crate::protocol2::{self};
use graphene_blockchain::{Block, Mempool, PeerView, Transaction, TxId};
use graphene_bloom::Membership;
use graphene_hashes::short_id_8;
use graphene_iblt::Iblt;
use graphene_wire::messages::{
    BlockTxnMsg, FullBlockMsg, GetDataMsg, GetFullBlockMsg, GetGrapheneTxnMsg, GrapheneBlockMsg,
    InvMsg, Message,
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
        /// Bytes the fallback actually cost (full block + framing). Zero
        /// only from a single ladder attempt, whose caller owns the ladder.
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

    /// Accumulate another breakdown into this one (used by the recovery
    /// ladder to merge per-rung accounting into a whole-relay view).
    pub fn absorb(&mut self, other: &ByteBreakdown) {
        self.inv += other.inv;
        self.getdata += other.getdata;
        self.bloom_s += other.bloom_s;
        self.iblt_i += other.iblt_i;
        self.prefilled += other.prefilled;
        self.order += other.order;
        self.p1_overhead += other.p1_overhead;
        self.bloom_r += other.bloom_r;
        self.p2_request_overhead += other.p2_request_overhead;
        self.missing_txns += other.missing_txns;
        self.iblt_j += other.iblt_j;
        self.bloom_f += other.bloom_f;
        self.p2_response_overhead += other.p2_response_overhead;
        self.extra_fetch += other.extra_fetch;
        self.rateless += other.rateless;
        self.fallback += other.fallback;
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
    let report = relay_block_attempt(block, peer, receiver_mempool, cfg, &RetryTweak::initial(cfg));
    finish_with_fallback(block, report)
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
    let tweak = RetryTweak::initial(cfg);
    let report =
        attempt_inner(block, peer, receiver_mempool, cfg, &tweak, EncodeMode::Bucketed(cache));
    finish_with_fallback(block, report)
}

/// A real client does not stop at "failed": it fetches the full block, and
/// those bytes belong in the accounting (they used to be silently dropped,
/// under-reporting every failed relay).
fn finish_with_fallback(block: &Block, mut report: RelayReport) -> RelayReport {
    if let RelayOutcome::Failed { p2, .. } = report.outcome {
        let (wire, bodies) = full_block_round(block);
        report.bytes.fallback = wire - bodies;
        report.bytes.missing_txns += bodies;
        report.rounds += 1;
        report.outcome = RelayOutcome::Failed { p2, fallback_bytes: wire };
    }
    report
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

/// One rung of a relay: a single Graphene attempt with no implicit
/// full-block fallback. [`relay_block`] wraps this for the classic
/// one-attempt-then-full-block client; [`crate::recovery`] chains several
/// attempts with inflated parameters instead.
pub(crate) fn relay_block_attempt(
    block: &Block,
    peer: Option<&PeerView>,
    receiver_mempool: &Mempool,
    cfg: &GrapheneConfig,
    tweak: &RetryTweak,
) -> RelayReport {
    attempt_inner(block, peer, receiver_mempool, cfg, tweak, EncodeMode::PerReceiver)
}

/// How the attempt encodes Protocol 1's message.
enum EncodeMode<'a> {
    /// Size `S`/`I` for the receiver's exact `m` (the paper's two-party
    /// session; byte counts match the figures).
    PerReceiver,
    /// Size for the canonical `m` of the receiver's bucket, optionally
    /// serving/populating the relay cache.
    Bucketed(Option<&'a EncodeCache>),
}

fn attempt_inner(
    block: &Block,
    peer: Option<&PeerView>,
    receiver_mempool: &Mempool,
    cfg: &GrapheneConfig,
    tweak: &RetryTweak,
    mode: EncodeMode<'_>,
) -> RelayReport {
    let mut bytes = ByteBreakdown::default();
    let m = receiver_mempool.len();

    // inv / getdata round (retries re-request instead of re-announcing, and
    // carry the attempt number so the sender can inflate).
    if tweak.attempt == 0 {
        bytes.inv = Message::Inv(InvMsg { block_id: block.id() }).wire_size();
        bytes.getdata =
            Message::GetData(GetDataMsg { block_id: block.id(), mempool_count: m as u64 })
                .wire_size();
    } else {
        bytes.getdata = Message::GetGrapheneRetry(graphene_wire::messages::GetGrapheneRetryMsg {
            block_id: block.id(),
            mempool_count: m as u64,
            attempt: tweak.attempt,
        })
        .wire_size();
    }

    // Protocol 1. Downstream sizing (x*, y*, b) uses the attempt's decayed
    // β too, so the whole rung is more forgiving, not just the filter.
    let cfg = &GrapheneConfig { beta: tweak.beta, ..*cfg };
    let p1_msg = match &mode {
        EncodeMode::PerReceiver => {
            protocol1::sender_encode_retry(block, m as u64, peer, cfg, tweak).0
        }
        EncodeMode::Bucketed(cache) => {
            protocol1::sender_encode_cached(block, m as u64, peer, cfg, tweak, *cache).msg
        }
    };
    account_p1(&p1_msg, &mut bytes);

    let (p1_failure, mut state) = match protocol1::receiver_decode(&p1_msg, receiver_mempool, cfg) {
        Ok(ok) => {
            return RelayReport {
                outcome: RelayOutcome::DecodedP1,
                rounds: 2,
                bytes,
                ordered_ids: Some(ok.ordered_ids),
            }
        }
        Err(e) => e,
    };

    // Direct-fetch extension: a *complete* IBLT decode that merely revealed
    // missing transactions already identifies exactly what to fetch — the
    // Protocol 2 structures would carry no new information.
    if cfg.direct_fetch
        && matches!(p1_failure, crate::error::P1Failure::MissingTransactions { .. })
        && state.i_delta.as_ref().is_some_and(Iblt::is_drained)
    {
        let mut resolved: HashMap<u64, TxId> = state.by_short.clone();
        for fp in &state.partial_right {
            resolved.remove(fp);
        }
        return fetch_extras(block, resolved, &state.partial_left, &p1_msg, bytes, cfg);
    }
    let _ = p1_failure; // every other failure routes through Protocol 2

    // Protocol 2.
    let (req, _req_state) = protocol2::receiver_request(&state, block.id(), block.len(), m, cfg);
    let req_wire = Message::GrapheneRequest(req.clone()).wire_size();
    bytes.bloom_r = req.bloom_r.serialized_size();
    bytes.p2_request_overhead = req_wire - bytes.bloom_r;

    let rec = match &mode {
        EncodeMode::PerReceiver => protocol2::sender_respond(block, &req, m, cfg),
        EncodeMode::Bucketed(cache) => {
            protocol2::sender_respond_cached(block, &req, m, cfg, *cache)
        }
    };
    let rec_wire = Message::GrapheneRecovery(rec.clone()).wire_size();
    bytes.missing_txns = body_bytes(&rec.missing);
    bytes.iblt_j = rec.iblt_j.serialized_size();
    bytes.bloom_f = rec.bloom_f.as_ref().map_or(0, |f| f.serialized_size());
    bytes.p2_response_overhead = rec_wire - bytes.missing_txns - bytes.iblt_j - bytes.bloom_f;

    let completed = protocol2::receiver_complete(
        &mut state,
        &rec,
        block.header().merkle_root,
        &p1_msg.order_bytes,
        cfg,
    );

    match completed {
        Ok(ok) => {
            if ok.needs_fetch.is_empty() {
                RelayReport {
                    outcome: RelayOutcome::DecodedP2 { extra_fetch: false },
                    rounds: 3,
                    bytes,
                    ordered_ids: ok.ordered_ids,
                }
            } else {
                // One more round: fetch R false positives by short ID.
                fetch_extras(block, ok.resolved, &ok.needs_fetch, &p1_msg, bytes, cfg)
            }
        }
        Err(p2) => RelayReport {
            outcome: RelayOutcome::Failed { p2, fallback_bytes: 0 },
            rounds: 3,
            bytes,
            ordered_ids: None,
        },
    }
}

/// The extra round: the receiver requests the short IDs it could not
/// resolve; the sender answers with the transactions; the receiver
/// finalizes against the already-adjusted candidate map.
fn fetch_extras(
    block: &Block,
    mut resolved: HashMap<u64, TxId>,
    needs: &[u64],
    p1_msg: &GrapheneBlockMsg,
    mut bytes: ByteBreakdown,
    cfg: &GrapheneConfig,
) -> RelayReport {
    let fetch = FetchRound::run(block, needs);
    // Split bodies out of the structure metric, as with `missing_txns`.
    bytes.extra_fetch = fetch.wire - fetch.bodies;
    bytes.missing_txns += fetch.bodies;

    if fetch.txns.len() != needs.len() {
        // Sender does not recognize a short ID: hostile or collided state.
        return RelayReport {
            outcome: RelayOutcome::Failed { p2: P2Failure::ShortIdCollision, fallback_bytes: 0 },
            rounds: 4,
            bytes,
            ordered_ids: None,
        };
    }

    // Receiver: add the fetched bodies and finalize.
    for tx in &fetch.txns {
        resolved.insert(short_id_8(tx.id()), *tx.id());
    }
    match protocol2::finalize_p2(&resolved, block.header().merkle_root, &p1_msg.order_bytes, cfg) {
        Ok(ok) => RelayReport {
            outcome: RelayOutcome::DecodedP2 { extra_fetch: true },
            rounds: 4,
            bytes,
            ordered_ids: ok.ordered_ids,
        },
        Err(p2) => RelayReport {
            outcome: RelayOutcome::Failed { p2, fallback_bytes: 0 },
            rounds: 4,
            bytes,
            ordered_ids: None,
        },
    }
}

fn account_p1(msg: &GrapheneBlockMsg, bytes: &mut ByteBreakdown) {
    use graphene_wire::Encode;
    let wire = Message::GrapheneBlock(msg.clone()).wire_size();
    bytes.bloom_s = msg.bloom_s.encoded_len();
    bytes.iblt_i = msg.iblt_i.serialized_size();
    bytes.prefilled = body_bytes(&msg.prefilled);
    bytes.order = msg.order_bytes.len();
    bytes.p1_overhead = wire - bytes.bloom_s - bytes.iblt_i - bytes.prefilled - bytes.order;
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
            // The attempt-level API keeps reporting the bare attempt.
            let a = relay_block_attempt(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky,
                &RetryTweak::initial(&flaky),
            );
            if let RelayOutcome::Failed { fallback_bytes, .. } = a.outcome {
                assert_eq!(fallback_bytes, 0);
                assert_eq!(a.bytes.fallback, 0);
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
