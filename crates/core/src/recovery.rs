//! The failure-recovery ladder: graceful degradation from Graphene down to
//! a full block, with every rung's cost accounted.
//!
//! The paper's β-assurance model (Theorems 1–3) bounds each Graphene
//! attempt's failure probability by `1 − β` but says nothing about what a
//! client *does* on failure. Deployed relay protocols answer with a
//! fallback ladder — BIP 152 Compact Blocks escalates `cmpctblock →
//! getblocktxn → full block` — and this module gives Graphene the same
//! shape:
//!
//! 1. **Graphene** — the ordinary attempt.
//! 2. **GrapheneRetry** — re-request with inflated parameters: fresh salts,
//!    β decayed toward 1 (shrinking the failure budget per Theorem 3's
//!    assurance model), and an IBLT sized `1.5×` per attempt
//!    ([`RetryTweak`](crate::protocol1::RetryTweak)).
//! 3. **Rateless** (optional, via [`RecoveryPolicy::rateless`]) — instead
//!    of the retries, stream coded cells from a rateless IBLT (arXiv
//!    2402.02668) against the candidate set the failed attempt already
//!    built, growing the stream until it decodes. A bad difference
//!    estimate costs a few more cells instead of a whole fresh sketch —
//!    this rung replaces the retry cliff with incremental degradation.
//! 4. **ShortIdFetch** — an xthin-style exchange (BUIP010): the receiver
//!    ships a Bloom filter of its mempool, the sender answers with the
//!    block's 8-byte short IDs plus whatever missed the filter.
//! 5. **FullBlock** — the uncompressed block; cannot fail.
//!
//! The order and budgets live in one sans-IO policy, [`Ladder`], with two
//! drivers: [`relay_with_recovery`] runs it in-process, and the netsim
//! peer runs it on timeouts and failed decodes. What happens *on* the
//! Graphene rungs — Protocols 1 and 2, the extra fetch, the rateless
//! stream — is the [`Receiver`](crate::receiver::Receiver) machine both
//! drivers step. The per-rung pieces both drivers share — the short-ID
//! request filter, the rateless stream, its windows and its first window,
//! the decoded difference's resolution — live here too.
//!
//! Every rung records its bytes and rounds in a [`RungReport`]; the merged
//! [`ByteBreakdown`] keeps figures honest about what degradation costs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::config::GrapheneConfig;
use crate::protocol1::CandidateSet;
use crate::session::{body_bytes, relay, ByteBreakdown, Encoding, FetchRound};
use graphene_blockchain::{Block, CheckedIds, Mempool, PeerView, TxId};
use graphene_bloom::{BloomFilter, Membership};
use graphene_hashes::{short_id_8, Digest};
use graphene_iblt::rateless::{CellStream, RatelessDecoder, RatelessDiff, MAX_CELLS_PER_BATCH};
use graphene_wire::messages::{
    GetMoreCellsMsg, Message, RatelessCellsMsg, XthinBlockMsg, XthinGetDataMsg,
};
use std::collections::HashMap;

/// Salt domain for the short-ID rung's mempool filter, disjoint from the
/// S/I/R/J/F domains in [`crate::protocol1`].
const SALT_XF: u64 = 0x7874;

/// Salt domain for the rateless rung's cell stream, disjoint from every
/// other domain.
const SALT_RL: u64 = 0x524c;

/// The rateless codec salt for a block: a deterministic function of the
/// block ID, so a receiver can verify the salt a `RatelessCells` frame
/// claims — a wrong salt is provable misbehavior, not a decode mystery.
pub fn rateless_salt(block_id: &Digest) -> u64 {
    block_id.low_u64() ^ SALT_RL
}

/// Knobs for the recovery ladder.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Inflated Graphene re-requests before escalating past Graphene
    /// (rung 2 repeats this many times with growing parameters).
    pub graphene_retries: u32,
    /// False-positive rate of the mempool filter in the short-ID rung.
    pub shortid_fpr: f64,
    /// Whether a failed attempt that left Protocol 2 candidates streams
    /// rateless cells *instead of* the inflated retries.
    pub rateless: bool,
    /// Most coded-cell windows the rateless rung may request (re-requests
    /// of a lost window included) before it falls through to the short-ID
    /// rung.
    pub rateless_max_batches: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            graphene_retries: 2,
            shortid_fpr: 0.001,
            rateless: false,
            rateless_max_batches: 8,
        }
    }
}

impl RecoveryPolicy {
    /// The "no retry cliff" ladder: one Graphene attempt, then stream
    /// rateless cells instead of inflated retries.
    pub fn rateless_first() -> Self {
        RecoveryPolicy { rateless: true, ..Default::default() }
    }
}

/// Which rung of the ladder an attempt ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RungKind {
    /// The ordinary Graphene attempt.
    Graphene,
    /// Inflated-parameter Graphene re-request.
    GrapheneRetry,
    /// Rateless coded-cell stream against the failed attempt's candidates.
    Rateless,
    /// Xthin-style short-ID fetch.
    ShortIdFetch,
    /// Uncompressed block.
    FullBlock,
}

impl RungKind {
    /// Stable lowercase name for CSV output.
    pub fn as_str(&self) -> &'static str {
        match self {
            RungKind::Graphene => "graphene",
            RungKind::GrapheneRetry => "graphene_retry",
            RungKind::Rateless => "rateless",
            RungKind::ShortIdFetch => "shortid_fetch",
            RungKind::FullBlock => "full_block",
        }
    }
}

/// Why the current rung stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RungFailure {
    /// A failed decode or a timeout: the rung may go again while its
    /// budget lasts.
    Failed,
    /// The rung cannot make progress (decode state over its cap or lost,
    /// a decoded difference that will not finalize): fall through however
    /// much budget is left.
    Abandoned,
}

/// A position on the recovery ladder and the sans-IO policy that moves it.
///
/// `retries` is the rung's spent budget: the retry number on
/// [`RungKind::GrapheneRetry`] (it doubles as the wire `attempt`), the
/// windows requested so far on [`RungKind::Rateless`], and zero elsewhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ladder {
    /// The rung the session is on.
    pub rung: RungKind,
    /// Budget spent on this rung.
    pub retries: u32,
}

impl Ladder {
    /// Every session starts on the ordinary Graphene attempt.
    pub const START: Ladder = Ladder { rung: RungKind::Graphene, retries: 0 };

    fn on(rung: RungKind, retries: u32) -> Ladder {
        Ladder { rung, retries }
    }

    /// Where the session goes after the current rung stopped, or `None`
    /// once the full block has failed too (the ladder is exhausted).
    ///
    /// `has_candidates` says whether the failed attempt left a Protocol 2
    /// candidate set: the rateless rung streams against it, so without
    /// one a rateless policy takes the inflated retries instead.
    pub fn next(
        self,
        policy: &RecoveryPolicy,
        has_candidates: bool,
        why: RungFailure,
    ) -> Option<Ladder> {
        let more = |budget: u32| why == RungFailure::Failed && self.retries < budget;
        Some(match self.rung {
            RungKind::Graphene
                if policy.rateless && has_candidates && policy.rateless_max_batches > 0 =>
            {
                Ladder::on(RungKind::Rateless, 1)
            }
            RungKind::Graphene if policy.graphene_retries > 0 => {
                Ladder::on(RungKind::GrapheneRetry, 1)
            }
            RungKind::GrapheneRetry if more(policy.graphene_retries) => {
                Ladder::on(RungKind::GrapheneRetry, self.retries + 1)
            }
            RungKind::Rateless if more(policy.rateless_max_batches) => {
                Ladder::on(RungKind::Rateless, self.retries + 1)
            }
            RungKind::Graphene | RungKind::GrapheneRetry | RungKind::Rateless => {
                Ladder::on(RungKind::ShortIdFetch, 0)
            }
            RungKind::ShortIdFetch => Ladder::on(RungKind::FullBlock, 0),
            RungKind::FullBlock => return None,
        })
    }
}

/// One rung's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RungReport {
    /// Which rung.
    pub kind: RungKind,
    /// Retry attempt number (0 for the initial Graphene attempt; only
    /// meaningful for the Graphene rungs).
    pub attempt: u32,
    /// Bytes this rung spent (all messages, bodies included).
    pub bytes: usize,
    /// Network round trips this rung took.
    pub rounds: u32,
    /// Whether this rung reconstructed the block.
    pub success: bool,
}

/// The whole ladder's outcome. The ladder always delivers — the last rung
/// ships the block verbatim — so there is no failure variant; degradation
/// shows up as *which* rung delivered and what the descent cost.
#[derive(Clone, Debug)]
pub struct LadderReport {
    /// The rung that finally delivered the block.
    pub delivered: RungKind,
    /// Every rung attempted, in order. The last entry succeeded.
    pub rungs: Vec<RungReport>,
    /// Merged byte accounting across all rungs.
    pub bytes: ByteBreakdown,
    /// Total round trips across all rungs.
    pub rounds: u32,
    /// The block's transaction IDs in block order (Merkle-validated).
    pub ordered_ids: Vec<TxId>,
}

impl LadderReport {
    /// True when the first rung sufficed (no degradation).
    pub fn clean(&self) -> bool {
        self.rungs.len() == 1
    }
}

/// Relay `block` with the full recovery ladder: never gives up, always
/// reports what the descent cost. One loop ([`crate::session`]'s
/// in-process driver) steps the [`Receiver`](crate::receiver::Receiver)
/// through every Graphene rung, answering it with the sender functions.
pub fn relay_with_recovery(
    block: &Block,
    peer: Option<&PeerView>,
    receiver_mempool: &Mempool,
    cfg: &GrapheneConfig,
    policy: &RecoveryPolicy,
) -> LadderReport {
    relay(block, peer, receiver_mempool, cfg, Encoding::PerReceiver, Some(policy)).1
}

/// The sender's answer to a window request: cells of the rateless stream
/// over `block`'s short IDs. Stateless: the stream is a deterministic
/// function of `(block, salt)`, so any window is regenerated by replaying
/// from index 0 — no per-receiver stream state to account, shed, or lose
/// in a crash.
pub fn rateless_cells(block: &Block, req: &GetMoreCellsMsg) -> RatelessCellsMsg {
    let short_ids = block.txns().iter().map(|tx| short_id_8(tx.id()));
    let mut stream = CellStream::new(rateless_salt(&block.id()), short_ids);
    stream.skip(req.from_index);
    let cells = stream.cells((req.count as usize).min(MAX_CELLS_PER_BATCH));
    RatelessCellsMsg {
        block_id: req.block_id,
        salt: stream.salt(),
        start_index: req.from_index,
        cells,
    }
}

/// Open the rateless rung against the candidate set a failed attempt
/// built: the receiver's decoder and the size of its first window.
///
/// The partial peel and the candidate-count gap both lower-bound the
/// difference — and both undercount it, because Bloom false positives
/// inflate `z` toward `n` while also joining the difference themselves.
/// 3× covers that undercount plus the codec's ~1.35d overhead, so most
/// degraded relays decode in one window.
pub fn rateless_open(
    block_id: &Digest,
    state: &CandidateSet,
    block_tx_count: usize,
) -> (RatelessDecoder, usize) {
    let decoder = RatelessDecoder::new(rateless_salt(block_id), state.by_short.keys().copied());
    let d_est = (state.partial_left.len() + state.partial_right.len())
        .max(state.z.abs_diff(block_tx_count))
        .max(4);
    (decoder, d_est.saturating_mul(3).clamp(8, MAX_CELLS_PER_BATCH))
}

/// Resolve a decoded difference against the candidates: drop the `S`
/// false positives (`only_local`). The `only_remote` short IDs are block
/// transactions the receiver lacks; the caller fetches them by short ID
/// (Protocol 2's extra round) before
/// [`finalize_p2`](crate::protocol2::finalize_p2).
pub fn rateless_resolve(by_short: &HashMap<u64, TxId>, diff: &RatelessDiff) -> HashMap<u64, TxId> {
    let mut resolved = by_short.clone();
    for s in &diff.only_local {
        resolved.remove(s);
    }
    resolved
}

/// The short-ID request's mempool filter: every transaction the receiver
/// holds, salted by the block so filters for different blocks differ.
pub fn shortid_filter(block_id: &Digest, mempool: &Mempool, fpr: f64) -> BloomFilter {
    let mut filter = BloomFilter::new(mempool.len().max(1), fpr, block_id.low_u64() ^ SALT_XF);
    let pool_ids: Vec<TxId> = mempool.iter().map(|tx| *tx.id()).collect();
    filter.insert_batch(&pool_ids);
    filter
}

/// The xthin-style rung: receiver sends a Bloom filter of its mempool, the
/// sender answers with block-order short IDs plus the transactions that
/// missed the filter; unresolved short IDs cost one repair round.
///
/// Fails (→ full block) only when short-ID resolution is ambiguous or the
/// Merkle root does not validate.
pub(crate) fn shortid_rung(
    block: &Block,
    mempool: &Mempool,
    policy: &RecoveryPolicy,
    bytes: &mut ByteBreakdown,
    report: &mut RungReport,
) -> Option<Vec<TxId>> {
    report.rounds = 1;

    // Receiver → sender: Bloom filter over the whole mempool.
    let filter = shortid_filter(&block.id(), mempool, policy.shortid_fpr);
    let missing: Vec<_> =
        block.txns().iter().filter(|tx| !filter.contains(tx.id())).cloned().collect();
    let req =
        Message::XthinGetData(XthinGetDataMsg { block_id: block.id(), mempool_filter: filter });
    report.bytes += req.wire_size();

    // Sender → receiver: short IDs in block order + filter misses in full.
    let short_ids: Vec<u64> = block.txns().iter().map(|tx| short_id_8(tx.id())).collect();
    let resp = Message::XthinBlock(XthinBlockMsg {
        header: *block.header(),
        short_ids: short_ids.clone(),
        missing: missing.clone(),
    });
    let missing_bodies = body_bytes(&missing);
    report.bytes += resp.wire_size();
    bytes.fallback += report.bytes - missing_bodies;
    bytes.missing_txns += missing_bodies;

    // Receiver: resolve short IDs mempool-first; delivered bodies are
    // authoritative on collision (same policy as Protocol 2).
    let mut by_short: HashMap<u64, Vec<TxId>> = HashMap::new();
    for tx in mempool.iter() {
        by_short.entry(short_id_8(tx.id())).or_default().push(*tx.id());
    }
    for tx in &missing {
        by_short.insert(short_id_8(tx.id()), vec![*tx.id()]);
    }

    let mut ordered: Vec<Option<TxId>> = Vec::with_capacity(short_ids.len());
    let mut repair: Vec<u64> = Vec::new();
    for s in &short_ids {
        match by_short.get(s).map(Vec::as_slice) {
            Some([id]) => ordered.push(Some(*id)),
            Some(_) | None => {
                // Ambiguous (two mempool txns collide) or absent (filter
                // false negative cannot happen; absent means the sender's
                // view diverged): repair by explicit fetch.
                ordered.push(None);
                repair.push(*s);
            }
        }
    }

    if !repair.is_empty() {
        report.rounds += 1;
        let fetch = FetchRound::run(block, &repair);
        report.bytes += fetch.wire;
        bytes.fallback += fetch.wire - fetch.bodies;
        bytes.missing_txns += fetch.bodies;

        let fetched_by_short: HashMap<u64, TxId> =
            fetch.txns.iter().map(|tx| (short_id_8(tx.id()), *tx.id())).collect();
        for (slot, s) in ordered.iter_mut().zip(&short_ids) {
            if slot.is_none() {
                *slot = fetched_by_short.get(s).copied();
            }
        }
    }

    let ids: Option<Vec<TxId>> = ordered.into_iter().collect();
    let validated = ids.and_then(|ids| CheckedIds::verify(ids, block.header().merkle_root).ok());
    report.success = validated.is_some();
    validated.map(CheckedIds::into_ids)
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
    fn ladder_walks_every_transition() {
        use RungFailure::{Abandoned, Failed};
        let on = Ladder::on;
        let retry = RecoveryPolicy::default();
        let rateless = RecoveryPolicy::rateless_first();
        let (tries, windows) = (retry.graphene_retries, retry.rateless_max_batches);

        // The retry ladder: Graphene, the inflated retries, short IDs, the
        // full block, then exhausted.
        let mut at = Ladder::START;
        let mut walk = vec![at];
        while let Some(next) = at.next(&retry, true, Failed) {
            at = next;
            walk.push(at);
        }
        let mut want = vec![Ladder::START];
        want.extend((1..=tries).map(|r| on(RungKind::GrapheneRetry, r)));
        want.extend([on(RungKind::ShortIdFetch, 0), on(RungKind::FullBlock, 0)]);
        assert_eq!(walk, want);
        // No retry budget: straight to short IDs.
        let none = RecoveryPolicy { graphene_retries: 0, ..retry };
        assert_eq!(Ladder::START.next(&none, true, Failed), Some(on(RungKind::ShortIdFetch, 0)));

        // The rateless ladder with candidates: one window per step, the
        // budget counted in windows, then short IDs.
        let mut at = Ladder::START.next(&rateless, true, Failed);
        for w in 1..=windows {
            assert_eq!(at, Some(on(RungKind::Rateless, w)));
            at = at.and_then(|l| l.next(&rateless, true, Failed));
        }
        assert_eq!(at, Some(on(RungKind::ShortIdFetch, 0)));
        // Without candidates there is nothing to stream against: the
        // rateless policy takes the inflated retries instead.
        assert_eq!(
            Ladder::START.next(&rateless, false, Failed),
            Some(on(RungKind::GrapheneRetry, 1))
        );
        // The retry policy ignores candidates.
        assert_eq!(Ladder::START.next(&retry, true, Failed), Some(on(RungKind::GrapheneRetry, 1)));

        // Abandoning a rung skips whatever budget it has left.
        for l in [on(RungKind::Rateless, 1), on(RungKind::GrapheneRetry, 1)] {
            assert_eq!(l.next(&rateless, true, Abandoned), Some(on(RungKind::ShortIdFetch, 0)));
        }
        assert_eq!(
            on(RungKind::ShortIdFetch, 0).next(&rateless, true, Abandoned),
            Some(on(RungKind::FullBlock, 0))
        );
        // The full block is the last rung under either policy.
        for p in [retry, rateless] {
            for why in [Failed, Abandoned] {
                assert_eq!(on(RungKind::FullBlock, 0).next(&p, true, why), None);
            }
        }
    }

    #[test]
    fn clean_relay_stays_on_first_rung() {
        let s = scenario(400, 2.0, 1.0, 1);
        let r = relay_with_recovery(
            &s.block,
            None,
            &s.receiver_mempool,
            &cfg(),
            &RecoveryPolicy::default(),
        );
        assert!(r.clean(), "rungs: {:?}", r.rungs);
        assert_eq!(r.delivered, RungKind::Graphene);
        assert_eq!(r.ordered_ids, s.block.ids());
    }

    #[test]
    fn ladder_always_delivers_under_flaky_config() {
        // A deliberately under-assured configuration (low β, coarse IBLT
        // rate, no ping-pong) fails on ~4% of seeds; the ladder must still
        // deliver every block, with the deeper rungs rescuing those seeds.
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        let policy = RecoveryPolicy::default();
        let mut degraded = 0usize;
        for seed in 0..100u64 {
            let s = scenario(100, 1.0, 0.5, seed);
            let r = relay_with_recovery(&s.block, None, &s.receiver_mempool, &flaky, &policy);
            assert_eq!(r.ordered_ids, s.block.ids(), "seed {seed}");
            assert!(r.rungs.last().is_some_and(|last| last.success), "seed {seed}");
            if !r.clean() {
                degraded += 1;
                // Deeper rungs imply all earlier rungs failed.
                for earlier in &r.rungs[..r.rungs.len() - 1] {
                    assert!(!earlier.success, "seed {seed}: {:?}", r.rungs);
                }
            }
        }
        assert!(degraded > 0, "flaky config never degraded; test is vacuous");
    }

    #[test]
    fn ladder_bytes_are_the_sum_of_rungs() {
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        for seed in 0..30u64 {
            let s = scenario(120, 1.0, 0.6, seed);
            let r = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky,
                &RecoveryPolicy::default(),
            );
            let rung_sum: usize = r.rungs.iter().map(|g| g.bytes).sum();
            assert_eq!(r.bytes.total(), rung_sum, "seed {seed}: {:?}", r.rungs);
            let rounds_sum: u32 = r.rungs.iter().map(|g| g.rounds).sum();
            assert_eq!(r.rounds, rounds_sum, "seed {seed}");
        }
    }

    #[test]
    fn ladder_handles_empty_mempool() {
        // With nothing in the mempool every body must travel regardless of
        // which rung delivers; the ladder must stay correct.
        let s = scenario(60, 0.0, 1.0, 9);
        let empty = Mempool::new();
        let r = relay_with_recovery(
            &s.block,
            None,
            &empty,
            &cfg(),
            &RecoveryPolicy { graphene_retries: 0, ..Default::default() },
        );
        assert_eq!(r.ordered_ids, s.block.ids());
        // Whichever rung delivered, the bodies all had to travel.
        let bodies: usize = s.block.txns().iter().map(|tx| tx.size()).sum();
        assert!(r.bytes.total() >= bodies);
    }

    fn flaky() -> GrapheneConfig {
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        flaky
    }

    #[test]
    fn rateless_rung_rescues_the_flaky_config() {
        // The "no retry cliff" ladder: every degraded seed must be rescued
        // by the rateless rung (never an inflated retry, and the deeper
        // rungs should not be needed — the stream just grows until it
        // decodes).
        let policy = RecoveryPolicy::rateless_first();
        let mut degraded = 0usize;
        for seed in 0..100u64 {
            let s = scenario(100, 1.0, 0.5, seed);
            let r = relay_with_recovery(&s.block, None, &s.receiver_mempool, &flaky(), &policy);
            assert_eq!(r.ordered_ids, s.block.ids(), "seed {seed}");
            assert!(
                r.rungs.iter().all(|g| g.kind != RungKind::GrapheneRetry),
                "seed {seed}: ReplaceRetries ran a retry rung: {:?}",
                r.rungs
            );
            if !r.clean() {
                degraded += 1;
                assert_eq!(r.delivered, RungKind::Rateless, "seed {seed}: {:?}", r.rungs);
                assert!(r.bytes.rateless > 0, "seed {seed}: rateless rung charged no bytes");
            }
        }
        assert!(degraded > 0, "flaky config never degraded; test is vacuous");
    }

    #[test]
    fn rateless_ladder_bytes_are_the_sum_of_rungs() {
        for seed in 0..30u64 {
            let s = scenario(120, 1.0, 0.6, seed);
            let r = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky(),
                &RecoveryPolicy::rateless_first(),
            );
            let rung_sum: usize = r.rungs.iter().map(|g| g.bytes).sum();
            assert_eq!(r.bytes.total(), rung_sum, "seed {seed}: {:?}", r.rungs);
            let rounds_sum: u32 = r.rungs.iter().map(|g| g.rounds).sum();
            assert_eq!(r.rounds, rounds_sum, "seed {seed}");
        }
    }

    #[test]
    fn rateless_rung_cheaper_than_inflated_retries_when_degraded() {
        // The bad-difference-estimate regime, at unit scale: a big block
        // almost entirely held by the receiver, so the true difference is
        // tiny relative to `n` — yet the under-assured sketches fail. A
        // retry re-ships block-proportional sketches (fresh S + inflated I
        // + full P2); the rateless rung streams difference-proportional
        // cells instead, and must beat it on bytes AND rounds.
        let mut retry_bytes = 0usize;
        let mut retry_rounds = 0u32;
        let mut rateless_bytes = 0usize;
        let mut rateless_rounds = 0u32;
        let mut degraded = 0usize;
        for seed in 0..60u64 {
            let s = scenario(800, 1.0, 0.95, seed);
            let a = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky(),
                &RecoveryPolicy::default(),
            );
            let b = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky(),
                &RecoveryPolicy::rateless_first(),
            );
            if a.clean() && b.clean() {
                continue;
            }
            degraded += 1;
            retry_bytes += a.bytes.total_excluding_txns();
            retry_rounds += a.rounds;
            rateless_bytes += b.bytes.total_excluding_txns();
            rateless_rounds += b.rounds;
        }
        assert!(degraded > 0, "no degraded seeds");
        assert!(
            rateless_bytes < retry_bytes,
            "rateless {rateless_bytes} B !< retry {retry_bytes} B over {degraded} degraded seeds"
        );
        assert!(
            rateless_rounds < retry_rounds,
            "rateless {rateless_rounds} rounds !< retry {retry_rounds}"
        );
    }

    #[test]
    fn full_block_rung_is_a_safety_net() {
        // With zero Graphene retries, any first-rung failure lands directly
        // on the deep (non-Graphene) rungs, which must charge fallback bytes.
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        let mut saw_deep = false;
        for seed in 0..100u64 {
            let s = scenario(100, 1.0, 0.5, seed);
            let r = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky,
                &RecoveryPolicy { graphene_retries: 0, ..Default::default() },
            );
            assert_eq!(r.ordered_ids, s.block.ids(), "seed {seed}");
            if r.delivered >= RungKind::ShortIdFetch {
                saw_deep = true;
                assert!(r.bytes.fallback > 0, "seed {seed}: deep rung with no fallback bytes");
            }
        }
        assert!(saw_deep, "no run reached the deep rungs");
    }
}
