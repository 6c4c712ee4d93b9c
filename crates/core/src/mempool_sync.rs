//! Mempool synchronization (paper §3.2.1): two peers obtain the union of
//! their transaction pools using the same machinery as block relay.
//!
//! The sender (ideally the peer with the *smaller* pool — `S` scales with
//! the sender's set) places his entire mempool in `S` and `I`. The receiver
//! partitions her pool into `Z` (passes `S`) and `H` (fails `S` — hers
//! alone, definitely unknown to the sender). Reconciliation then proceeds
//! exactly as Protocols 1/2 over the pseudo-block "sender's mempool": the
//! receiver learns the sender-only transactions, and ships `H` plus any
//! discovered `S` false positives back. Because `m ≈ n` is the common shape
//! here, the §3.3.1 special case (filter `F`) triggers routinely — Fig. 18
//! evaluates exactly this path.

use crate::config::GrapheneConfig;
use crate::protocol1::{self};
use crate::protocol2::{self};
use crate::session::{body_bytes, ByteBreakdown, FetchRound};
use graphene_blockchain::{Block, Mempool, OrderingScheme, TxId};
use graphene_bloom::Membership;
use graphene_hashes::Digest;
use graphene_wire::messages::{BlockTxnMsg, GetDataMsg, Message};

/// Result of a synchronization round.
#[derive(Debug, Clone)]
pub struct SyncReport {
    /// Whether both peers ended with the exact union.
    pub success: bool,
    /// Byte breakdown of the Graphene structures (tx bodies accounted in
    /// `missing_txns`/`extra_fetch`/`h_transfer`).
    pub bytes: ByteBreakdown,
    /// Bytes spent shipping the receiver-only transactions (`H` + false
    /// positives) back to the sender.
    pub h_transfer: usize,
    /// Round trips used.
    pub rounds: u32,
    /// Size of the final union.
    pub union_size: usize,
}

/// Synchronize two mempools; returns the report plus both updated pools.
pub fn sync_mempools(
    sender: &Mempool,
    receiver: &Mempool,
    cfg: &GrapheneConfig,
) -> (SyncReport, Mempool, Mempool) {
    let mut bytes = ByteBreakdown::default();
    let m = receiver.len();

    // The pseudo-block: the sender's entire pool, CTOR-ordered so the
    // Merkle commitment doubles as the reconciliation check.
    let txns: Vec<_> = sender.iter().cloned().collect();
    let block = Block::assemble(Digest::ZERO, 0, txns, OrderingScheme::Ctor);

    // Handshake: receiver announces its pool size (getdata shape).
    bytes.getdata =
        Message::GetData(GetDataMsg { block_id: block.id(), mempool_count: m as u64 }).wire_size();

    let (p1_msg, _) = protocol1::sender_encode(&block, m as u64, None, cfg);
    bytes.bloom_s = p1_msg.bloom_s.serialized_size();
    bytes.iblt_i = p1_msg.iblt_i.serialized_size();
    bytes.p1_overhead = Message::GrapheneBlock(p1_msg.clone()).wire_size()
        - bytes.bloom_s
        - bytes.iblt_i
        - p1_msg.order_bytes.len();

    let mut rounds = 2u32;
    let mut receiver_pool = receiver.clone();
    // Once the receiver reconstructs the sender's pool exactly, everything
    // of hers outside it — H (failed S outright) plus the S false positives
    // the IBLT identified — ships back to the sender.
    let mut known_sender_set: Option<Vec<TxId>> = None;

    let p1_result = protocol1::receiver_decode(&p1_msg, receiver, cfg);
    let reconciled = match p1_result {
        Ok(ok) => {
            // Sender's pool ⊆ receiver's pool (plus FPs already peeled).
            // The receiver reconstructed the pseudo-block exactly; nothing
            // to fetch.
            known_sender_set = Some(ok.ordered_ids);
            true
        }
        Err((_why, mut state)) => {
            rounds += 2;
            let (req, _rs) = protocol2::receiver_request(&state, block.id(), block.len(), m, cfg);
            let req_wire = Message::GrapheneRequest(req.clone()).wire_size();
            bytes.bloom_r = req.bloom_r.serialized_size();
            bytes.p2_request_overhead = req_wire - bytes.bloom_r;

            let rec = protocol2::sender_respond(&block, &req, m, cfg);
            bytes.missing_txns = body_bytes(&rec.missing);
            bytes.iblt_j = rec.iblt_j.serialized_size();
            bytes.bloom_f = rec.bloom_f.as_ref().map_or(0, |f| f.serialized_size());
            bytes.p2_response_overhead = Message::GrapheneRecovery(rec.clone()).wire_size()
                - bytes.missing_txns
                - bytes.iblt_j
                - bytes.bloom_f;

            // Sender-only transactions delivered outright enter the
            // receiver's pool.
            for tx in &rec.missing {
                receiver_pool.insert(tx.clone());
            }

            match protocol2::receiver_complete(
                &mut state,
                &rec,
                block.header().merkle_root,
                &p1_msg.order_bytes,
                cfg,
            ) {
                Ok(ok) => {
                    let mut set: Vec<TxId> = ok.resolved.values().copied().collect();
                    if ok.needs_fetch.is_empty() {
                        known_sender_set = Some(set);
                        true
                    } else {
                        // Extra round: fetch stragglers by short ID.
                        rounds += 2;
                        let fetch = FetchRound::run(&block, &ok.needs_fetch);
                        let all_found = fetch.txns.len() == ok.needs_fetch.len();
                        bytes.extra_fetch = fetch.wire - fetch.bodies;
                        bytes.missing_txns += fetch.bodies;
                        for tx in fetch.txns {
                            set.push(*tx.id());
                            receiver_pool.insert(tx);
                        }
                        if all_found {
                            known_sender_set = Some(set);
                        }
                        all_found
                    }
                }
                Err(_) => false,
            }
        }
    };

    // Ship back everything the sender lacks: H plus discovered false
    // positives, i.e. receiver transactions outside the reconstructed
    // sender set. If reconciliation failed, fall back to H alone (the
    // definite negatives of S).
    let h_ids: Vec<TxId> = match &known_sender_set {
        Some(set) => {
            let set: std::collections::HashSet<TxId> = set.iter().copied().collect();
            receiver.iter().filter(|tx| !set.contains(tx.id())).map(|tx| *tx.id()).collect()
        }
        None => {
            // Batch-probe S over the receiver pool (interleaved hashing);
            // same answers and order as per-element `contains` calls.
            let pool_ids: Vec<TxId> = receiver.iter().map(|tx| *tx.id()).collect();
            let hits = p1_msg.bloom_s.contains_batch(&pool_ids);
            pool_ids.iter().enumerate().filter(|(j, _)| !hits.get(*j)).map(|(_, id)| *id).collect()
        }
    };
    let h_txns: Vec<_> = h_ids.iter().filter_map(|id| receiver.get(id)).cloned().collect();
    let h_transfer = if h_txns.is_empty() {
        0
    } else {
        Message::BlockTxn(BlockTxnMsg { block_id: block.id(), txns: h_txns.clone() }).wire_size()
    };
    let mut sender_pool = sender.clone();
    for tx in h_txns {
        sender_pool.insert(tx);
    }
    // Sender also adopts everything it already had (no-op) — the receiver's
    // remaining novel transactions all failed S or were discovered above.

    // Ground truth: both pools must now equal the union.
    let mut union_ids: Vec<TxId> =
        sender.iter().chain(receiver.iter()).map(|tx| *tx.id()).collect();
    union_ids.sort();
    union_ids.dedup();
    let success = reconciled
        && union_ids.iter().all(|id| sender_pool.contains(id))
        && union_ids.iter().all(|id| receiver_pool.contains(id));

    (
        SyncReport { success, bytes, h_transfer, rounds, union_size: union_ids.len() },
        sender_pool,
        receiver_pool,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Scenario, TxProfile};
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg() -> GrapheneConfig {
        GrapheneConfig::default()
    }

    fn pools(n: usize, common: f64, seed: u64) -> (Mempool, Mempool) {
        Scenario::mempool_sync(n, common, TxProfile::Fixed(150), &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn identical_pools_trivial() {
        let (a, b) = pools(300, 1.0, 1);
        let (report, sa, sb) = sync_mempools(&a, &b, &cfg());
        assert!(report.success);
        assert_eq!(report.union_size, 300);
        assert_eq!(sa.len(), 300);
        assert_eq!(sb.len(), 300);
        assert_eq!(report.h_transfer, 0);
    }

    #[test]
    fn partial_overlap_unions() {
        for common in [0.0, 0.3, 0.7, 0.9] {
            let (a, b) = pools(200, common, (common * 100.0) as u64 + 2);
            let (report, sa, sb) = sync_mempools(&a, &b, &cfg());
            assert!(report.success, "common = {common}: {report:?}");
            assert_eq!(sa.len(), report.union_size, "common = {common}");
            assert_eq!(sb.len(), report.union_size, "common = {common}");
            let expect = 200 + 200 - (200.0 * common).round() as usize;
            assert_eq!(report.union_size, expect, "common = {common}");
        }
    }

    #[test]
    fn disjoint_pools_full_exchange() {
        let (a, b) = pools(100, 0.0, 9);
        let (report, sa, sb) = sync_mempools(&a, &b, &cfg());
        assert!(report.success);
        assert_eq!(report.union_size, 200);
        assert_eq!(sa.len(), 200);
        assert_eq!(sb.len(), 200);
        assert!(report.h_transfer > 0, "receiver-only txns must ship back");
    }

    #[test]
    fn smaller_sender_cheaper() {
        // §3.2.1: "more efficient if the peer with the smaller mempool acts
        // as the sender since S will be smaller." Model the natural shape:
        // one peer's pool is a subset of the other's.
        let mut rng = StdRng::seed_from_u64(10);
        let (big, _) = Scenario::mempool_sync(2000, 1.0, TxProfile::Fixed(150), &mut rng);
        let small: Mempool = big.iter().take(500).cloned().collect();

        let (r1, sa1, sb1) = sync_mempools(&small, &big, &cfg());
        let (r2, sa2, sb2) = sync_mempools(&big, &small, &cfg());
        assert!(r1.success && r2.success);
        for p in [&sa1, &sb1, &sa2, &sb2] {
            assert_eq!(p.len(), 2000);
        }
        // Structure bytes only (tx bodies dominate the reverse direction and
        // are accounted separately).
        let structures = |r: &SyncReport| {
            r.bytes.bloom_s + r.bytes.iblt_i + r.bytes.bloom_r + r.bytes.iblt_j + r.bytes.bloom_f
        };
        assert!(
            structures(&r1) < structures(&r2),
            "small-sender {} vs big-sender {}",
            structures(&r1),
            structures(&r2)
        );
    }
}
