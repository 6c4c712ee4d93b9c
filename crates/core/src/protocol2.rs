//! Protocol 2: recover when the receiver is missing transactions
//! (paper §3.2, Fig. 3), including the `m ≈ n` special case (§3.3.1).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::config::GrapheneConfig;
use crate::error::P2Failure;
use crate::ordering::decode_order;
use crate::params::{optimal_b, x_star, y_star, BChoice};
use crate::protocol1::{CandidateSet, SALT_F, SALT_J, SALT_R};
use graphene_blockchain::{Block, CheckedIds, OrderingScheme, Transaction, TxId};
use graphene_bloom::{params::theoretical_fpr, BloomFilter};
use graphene_hashes::short_id_8;
use graphene_iblt::{ping_pong_decode, Iblt};
use graphene_iblt_params::params_for;
use graphene_wire::messages::{GrapheneRecoveryMsg, GrapheneRequestMsg};
use std::collections::HashMap;

/// Receiver-side record of what was sent in the request, needed to finish
/// the decode when the recovery message arrives.
#[derive(Debug)]
pub struct RequestState {
    /// The bounds that sized the request.
    pub choice: BChoice,
    /// Theorem 2's `x*`.
    pub x_star: usize,
    /// Theorem 3's `y*`.
    pub y_star: usize,
    /// Whether the `m ≈ n` special case was triggered.
    pub special_mn: bool,
}

/// Step 1–2: derive `x*`, `y*` and `b`, build Bloom filter `R` over the
/// candidate set, and emit the request message.
///
/// `n` is the block transaction count (from the Protocol 1 message), `m`
/// the receiver's mempool size.
pub fn receiver_request(
    state: &CandidateSet,
    block_id: graphene_hashes::Digest,
    n: usize,
    m: usize,
    cfg: &GrapheneConfig,
) -> (GrapheneRequestMsg, RequestState) {
    let z = state.by_short.len();
    let xs = x_star(z, m, state.fpr_s, cfg.beta, z.min(n));
    let ys = y_star(m, xs, state.fpr_s, cfg.beta);
    let choice = optimal_b(z, n, xs, ys, cfg.iblt_rate_denom);

    // §3.3.1 special case: when `m ≈ n` the sender's filter degenerates
    // (f_S → 1), so nearly the whole mempool passes S (`z ≈ m`) and the
    // false-positive bound explodes (`y* ≈ m`) — the normal path would size
    // IBLT J to ~m cells, "larger than a regular block". Detect that shape
    // and fall back to a fixed f_R with reversed roles.
    let special_mn = m > 0 && z * 10 >= m * 9 && ys * 10 >= m * 9;

    let fpr_r = if special_mn { cfg.special_case_fpr } else { choice.fpr };
    let salt = block_id.low_u64();
    let mut bloom_r =
        BloomFilter::with_strategy(z.max(1), fpr_r, salt ^ SALT_R, cfg.bloom_strategy);
    let candidates: Vec<TxId> = state.by_short.values().copied().collect();
    bloom_r.insert_batch(&candidates);

    let msg =
        GrapheneRequestMsg { block_id, bloom_r, y_star: ys as u64, b: choice.b as u64, special_mn };
    (msg, RequestState { choice, x_star: xs, y_star: ys, special_mn })
}

/// Steps 3–4 (sender): answer with the definitely-missing transactions and
/// IBLT `J`; in the special case also the compensating filter `F`.
///
/// `m` is the receiver's mempool size from the original `getdata`.
pub fn sender_respond(
    block: &Block,
    req: &GrapheneRequestMsg,
    m: usize,
    cfg: &GrapheneConfig,
) -> GrapheneRecoveryMsg {
    let n = block.len();
    let salt = block.id().low_u64();

    // Transactions failing R are definitely missing at the receiver. One
    // batch probe of R over the block serves both this split and the
    // special-case F build below (the scalar path probed R twice per tx).
    let block_ids: Vec<TxId> = block.txns().iter().map(|tx| *tx.id()).collect();
    let r_hits = req.bloom_r.contains_batch(&block_ids);
    let missing: Vec<Transaction> = block
        .txns()
        .iter()
        .enumerate()
        .filter(|(j, _)| !r_hits.get(*j))
        .map(|(_, tx)| tx.clone())
        .collect();

    let (j_capacity, bloom_f) = if req.special_mn {
        // Reversed roles (§3.3.1): the *sender* bounds the false positives
        // of R among his block, substituting block size for mempool size.
        let h = missing.len();
        let z2 = n - h; // block txns that passed R
        let fpr_r = if req.bloom_r.bit_len() == 0 {
            1.0
        } else {
            theoretical_fpr(
                req.bloom_r.bit_len(),
                req.bloom_r.hash_count(),
                req.bloom_r.inserted().max(z2),
            )
        };
        let xs2 = x_star(z2, n, fpr_r, cfg.beta, z2);
        let ys2 = y_star(n, xs2, fpr_r, cfg.beta);
        let choice2 = optimal_b(z2, m, xs2, ys2, cfg.iblt_rate_denom);
        let mut f =
            BloomFilter::with_strategy(z2.max(1), choice2.fpr, salt ^ SALT_F, cfg.bloom_strategy);
        let passed: Vec<TxId> = block_ids
            .iter()
            .enumerate()
            .filter(|(j, _)| r_hits.get(*j))
            .map(|(_, id)| *id)
            .collect();
        f.insert_batch(&passed);
        (choice2.b + ys2, Some(f))
    } else {
        (req.b as usize + req.y_star as usize, None)
    };

    let params = params_for(j_capacity.max(1), cfg.iblt_rate_denom);
    let mut iblt_j = Iblt::new(params.c, params.k, salt ^ SALT_J);
    for tx in block.txns() {
        iblt_j.insert(short_id_8(tx.id()));
    }

    GrapheneRecoveryMsg { block_id: block.id(), missing, iblt_j, bloom_f }
}

/// [`sender_respond`] with the encode-once relay cache threaded through.
///
/// A `GrapheneRecoveryMsg` is a function of the *receiver's* Bloom filter
/// `R`, so it is receiver-dependent by construction and can never be
/// served from the cache. The cache parameter exists so relay-node call
/// sites account the forced re-encode as a bypass in
/// [`crate::encode_cache::CacheStats`] — Protocol 2 traffic is real
/// sender CPU the cache cannot amortize.
pub fn sender_respond_cached(
    block: &Block,
    req: &GrapheneRequestMsg,
    m: usize,
    cfg: &GrapheneConfig,
    cache: Option<&crate::encode_cache::EncodeCache>,
) -> GrapheneRecoveryMsg {
    if let Some(c) = cache {
        c.note_bypass();
    }
    sender_respond(block, req, m, cfg)
}

/// Outcome of Protocol 2 at the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P2Success {
    /// Block transaction IDs in block order, if every body is available and
    /// the Merkle root validated. `None` while `needs_fetch` is non-empty.
    pub ordered_ids: Option<Vec<TxId>>,
    /// The same ids as the Merkle check's token (`None` exactly when
    /// `ordered_ids` is), from which a receiver builds the block without
    /// hashing the root again.
    pub checked: Option<CheckedIds>,
    /// Short IDs of block transactions whose bodies the receiver still
    /// lacks: they falsely passed `R` (at most `b` of them, with
    /// β-assurance) and must be fetched in one extra round.
    pub needs_fetch: Vec<u64>,
    /// The adjusted candidate map (false positives removed, delivered
    /// transactions added). After fetching `needs_fetch`, add those IDs and
    /// call [`finalize_p2`] on this map.
    pub resolved: HashMap<u64, TxId>,
}

/// Step 5 (receiver): build `J′`, subtract, peel — with §4.2 ping-pong
/// against the Protocol 1 difference when available — and reconstruct.
pub fn receiver_complete(
    p1_state: &mut CandidateSet,
    msg: &GrapheneRecoveryMsg,
    header_root: graphene_hashes::Digest,
    order_bytes: &[u8],
    cfg: &GrapheneConfig,
) -> Result<P2Success, P2Failure> {
    // Candidate set C: survivors of S (optionally re-filtered through F in
    // the special case) plus the newly received transactions.
    //
    // Collision policy (§6.1): a delivered transaction is *authoritative* —
    // the sender put it in the block — so on a short-ID collision it
    // displaces a mere mempool candidate (which must have been an attacker
    // transaction or astronomical accident). Only same-tier collisions are
    // unresolvable. This is what confines the manufactured-collision attack
    // to probability f_S·f_R.
    let mut by_short: HashMap<u64, TxId> = HashMap::new();
    let mut collision = false;
    {
        let mut add = |id: &TxId| {
            if let Some(prev) = by_short.insert(short_id_8(id), *id) {
                if prev != *id {
                    collision = true;
                }
            }
        };
        match &msg.bloom_f {
            Some(f) => {
                // Batch-probe F over the candidates; the pass visits them
                // in the same (by_short iteration) order as the scalar loop.
                let cand: Vec<TxId> = p1_state.by_short.values().copied().collect();
                let hits = f.contains_batch(&cand);
                for (j, id) in cand.iter().enumerate() {
                    if hits.get(j) {
                        add(id);
                    }
                }
            }
            None => {
                for id in p1_state.by_short.values() {
                    add(id);
                }
            }
        }
    }
    if collision {
        return Err(P2Failure::ShortIdCollision);
    }
    // Delivered transactions overwrite candidates without raising the
    // collision flag; a displaced candidate simply drops out of C.
    for tx in &msg.missing {
        by_short.insert(short_id_8(tx.id()), *tx.id());
    }

    // J′ and the difference.
    let mut j_prime =
        Iblt::new(msg.iblt_j.cell_count(), msg.iblt_j.hash_count(), msg.iblt_j.salt());
    for short in by_short.keys() {
        j_prime.insert(*short);
    }
    // Consume J′ as the difference buffer (J ⊖ J′ in place) — no third
    // table allocation per decode attempt.
    if j_prime.subtract_from(&msg.iblt_j).is_err() {
        // Unreachable for an honest receiver (J′ copies the message's own
        // geometry): a self-inconsistent message is provably hostile.
        return Err(P2Failure::Malformed("iblt geometry self-mismatch"));
    }
    let mut j_delta = j_prime;

    // Ping-pong (§4.2): align I ⊖ I′ with J ⊖ J′, then decode jointly. Only
    // valid in the normal (non-F) path where the two differences cover the
    // same item set after alignment:
    //
    //   I ⊖ I′ (post-peel) ≡ (B\Z − PL) ∪ (Z\B − PR)
    //   J ⊖ J′            ≡ (B\Z − T)  ∪ (Z\B)
    //
    // where PL/PR are the values Protocol 1's partial peel already removed
    // and T the newly delivered transactions. Cancelling T∖PL out of the
    // former and PL∖T, PR out of the latter makes both differences equal.
    let (result, extra_left, extra_right) =
        if cfg.pingpong && msg.bloom_f.is_none() && p1_state.i_delta.is_some() {
            use std::collections::HashSet;
            let pl: HashSet<u64> = p1_state.partial_left.iter().copied().collect();
            let t_set: HashSet<u64> = msg.missing.iter().map(|tx| short_id_8(tx.id())).collect();
            let Some(i_delta) = p1_state.i_delta.as_mut() else { unreachable!("guarded above") };
            for s in &t_set {
                if !pl.contains(s) {
                    // Residual §6.1 corner: if a delivered transaction's short
                    // ID collides with a Z candidate, the pair already XOR-
                    // cancelled inside I ⊖ I′ and this cancel inserts a phantom
                    // −1 entry. The joint decode then fails (never miscorrects —
                    // the Merkle check guards finalization) and the session
                    // falls back; probability ≈ f_S · Pr[P1 IBLT failure].
                    i_delta.cancel(*s, 1);
                }
            }
            for l in &pl {
                if !t_set.contains(l) {
                    j_delta.cancel(*l, 1);
                }
            }
            for r in &p1_state.partial_right {
                j_delta.cancel(*r, -1);
            }
            let r = match ping_pong_decode(i_delta, &mut j_delta) {
                Ok(r) => r,
                Err(_) => return Err(P2Failure::IbltIncomplete),
            };
            // The partial-peel results are part of the difference too.
            (r, p1_state.partial_left.clone(), p1_state.partial_right.clone())
        } else {
            let r = match j_delta.peel() {
                Ok(r) => r,
                // Plain path: J′ was built honestly from the message's own
                // geometry, so a double-decode is the §6.1 signature and
                // provably the sender's fault. (On the ping-pong path above
                // the receiver's own `cancel` calls can inject phantom
                // entries, so failures there stay `IbltIncomplete`.)
                Err(_) => return Err(P2Failure::Malformed("iblt double-decode (§6.1)")),
            };
            (r, Vec::new(), Vec::new())
        };

    if !result.complete {
        return Err(P2Failure::IbltIncomplete);
    }

    // Adjust: drop false positives; block-only values are R false positives
    // whose bodies we lack — fetch them in one extra round.
    for fp in result.only_right.iter().chain(&extra_right) {
        by_short.remove(fp);
    }
    let needs_fetch: Vec<u64> = result
        .only_left
        .iter()
        .chain(&extra_left)
        .copied()
        .filter(|s| !by_short.contains_key(s))
        .collect();
    if !needs_fetch.is_empty() {
        return Ok(P2Success { ordered_ids: None, checked: None, needs_fetch, resolved: by_short });
    }

    finalize_p2(&by_short, header_root, order_bytes, cfg)
}

/// Complete the reconstruction once every candidate body is known.
pub fn finalize_p2(
    by_short: &HashMap<u64, TxId>,
    header_root: graphene_hashes::Digest,
    order_bytes: &[u8],
    cfg: &GrapheneConfig,
) -> Result<P2Success, P2Failure> {
    let mut ids: Vec<TxId> = by_short.values().copied().collect();
    ids.sort();
    let ordered = match cfg.ordering {
        OrderingScheme::Ctor => ids,
        OrderingScheme::MinerChosen => {
            decode_order(&ids, order_bytes).ok_or(P2Failure::MerkleMismatch)?
        }
    };
    let checked =
        CheckedIds::verify(ordered, header_root).map_err(|_| P2Failure::MerkleMismatch)?;
    Ok(P2Success {
        ordered_ids: Some(checked.ids().to_vec()),
        checked: Some(checked),
        needs_fetch: Vec::new(),
        resolved: by_short.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol1::{receiver_decode, sender_encode};
    use graphene_blockchain::{Mempool, Scenario, ScenarioParams};
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

    /// Drive P1 → P2 end to end; panic on any unexpected state.
    fn run_full(s: &Scenario, cfg: &GrapheneConfig) -> Result<P2Success, P2Failure> {
        let m = s.receiver_mempool.len();
        let (p1_msg, _) = sender_encode(&s.block, m as u64, None, cfg);
        let (_, mut state) = match receiver_decode(&p1_msg, &s.receiver_mempool, cfg) {
            Ok(ok) => {
                return Ok(P2Success {
                    ordered_ids: Some(ok.ordered_ids),
                    checked: Some(ok.checked),
                    needs_fetch: vec![],
                    resolved: HashMap::new(),
                })
            }
            Err(e) => e,
        };
        let (req, _req_state) = receiver_request(&state, s.block.id(), s.block.len(), m, cfg);
        let rec = sender_respond(&s.block, &req, m, cfg);
        receiver_complete(&mut state, &rec, p1_msg.header.merkle_root, &p1_msg.order_bytes, cfg)
    }

    #[test]
    fn recovers_half_missing_block() {
        let s = scenario(200, 1.0, 0.5, 1);
        let got = run_full(&s, &cfg()).expect("protocol 2 recovers");
        match got.ordered_ids {
            Some(ids) => assert_eq!(ids, s.block.ids()),
            None => {
                // An R false positive needed an extra fetch; bounded by b.
                assert!(got.needs_fetch.len() <= 20);
            }
        }
    }

    #[test]
    fn recovers_across_fractions() {
        for (seed, held) in [(2u64, 0.0), (3, 0.2), (4, 0.8), (5, 0.95)] {
            let s = scenario(150, 1.0, held, seed);
            let got = run_full(&s, &cfg()).unwrap_or_else(|e| panic!("held = {held}: {e:?}"));
            if let Some(ids) = got.ordered_ids {
                assert_eq!(ids, s.block.ids(), "held = {held}");
            }
        }
    }

    #[test]
    fn m_equals_n_special_case() {
        // Receiver holds 40% of the block and unrelated spam tops the
        // mempool up to exactly n: the classic special-case shape.
        let params = ScenarioParams {
            block_size: 300,
            extra_mempool_multiple: 0.6,
            block_fraction_in_mempool: 0.4,
            ..Default::default()
        };
        let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(6));
        assert_eq!(s.receiver_mempool.len(), s.block.len());
        let got = run_full(&s, &cfg()).expect("special case recovers");
        if let Some(ids) = got.ordered_ids {
            assert_eq!(ids, s.block.ids());
        }
    }

    #[test]
    fn special_case_flag_round_trips_to_f_filter() {
        let params = ScenarioParams {
            block_size: 300,
            extra_mempool_multiple: 0.6,
            block_fraction_in_mempool: 0.4,
            ..Default::default()
        };
        let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(7));
        let m = s.receiver_mempool.len();
        let (p1_msg, _) = sender_encode(&s.block, m as u64, None, &cfg());
        let Err((_, state)) = receiver_decode(&p1_msg, &s.receiver_mempool, &cfg()) else {
            panic!("protocol 1 cannot succeed at 40% possession");
        };
        let (req, req_state) = receiver_request(&state, s.block.id(), s.block.len(), m, &cfg());
        if req_state.special_mn {
            assert!(req.special_mn);
            let rec = sender_respond(&s.block, &req, m, &cfg());
            assert!(rec.bloom_f.is_some(), "special case must carry filter F");
        }
    }

    #[test]
    fn empty_mempool_full_recovery() {
        let s = scenario(100, 0.0, 1.0, 8);
        let m = 0usize;
        let (p1_msg, _) = sender_encode(&s.block, m as u64, None, &cfg());
        let empty = Mempool::new();
        let Err((_, mut state)) = receiver_decode(&p1_msg, &empty, &cfg()) else {
            panic!("cannot decode against an empty mempool");
        };
        let (req, _) = receiver_request(&state, s.block.id(), s.block.len(), m, &cfg());
        let rec = sender_respond(&s.block, &req, m, &cfg());
        // Everything is missing: the sender ships all 100 transactions.
        assert_eq!(rec.missing.len(), 100);
        let got = receiver_complete(
            &mut state,
            &rec,
            p1_msg.header.merkle_root,
            &p1_msg.order_bytes,
            &cfg(),
        )
        .expect("trivial recovery");
        assert_eq!(got.ordered_ids.expect("complete"), s.block.ids());
    }

    #[test]
    fn request_bounds_are_consistent() {
        let s = scenario(400, 2.0, 0.7, 9);
        let m = s.receiver_mempool.len();
        let (p1_msg, _) = sender_encode(&s.block, m as u64, None, &cfg());
        let Err((_, state)) = receiver_decode(&p1_msg, &s.receiver_mempool, &cfg()) else {
            panic!("expected P1 failure at 70% possession");
        };
        let (req, rs) = receiver_request(&state, s.block.id(), s.block.len(), m, &cfg());
        // x* must lower-bound the true x = 280; y* must upper-bound true y.
        let true_x = s.block.ids().iter().filter(|id| s.receiver_mempool.contains(id)).count();
        assert!(rs.x_star <= true_x, "x* = {} vs x = {true_x}", rs.x_star);
        let true_y = state.by_short.len() - true_x;
        assert!(rs.y_star >= true_y, "y* = {} vs y = {true_y}", rs.y_star);
        assert_eq!(req.y_star as usize, rs.y_star);
    }

    #[test]
    fn pingpong_can_be_disabled() {
        let mut c = cfg();
        c.pingpong = false;
        let s = scenario(200, 1.0, 0.5, 10);
        // Must still work (single-IBLT decode path).
        let got = run_full(&s, &c);
        assert!(got.is_ok(), "{got:?}");
    }
}
