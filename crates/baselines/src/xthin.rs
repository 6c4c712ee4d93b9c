//! Xtreme Thinblocks (BUIP010), as deployed in Bitcoin Unlimited.
//!
//! The receiver's `getdata` carries a Bloom filter of her mempool txids; the
//! sender replies with the block's 8-byte short IDs plus, in full, every
//! transaction that misses the filter. A filter false positive makes the
//! sender skip a transaction the receiver actually lacks — detected at
//! reconstruction and repaired with one extra round.
//!
//! The paper's deployment comparison (Fig. 12) uses **XThin***: identical
//! except the receiver-filter bytes are excluded to make the one-way cost
//! comparable; [`BaselineReport::total_xthin_star`] implements that view.

use crate::BaselineReport;
use graphene::recovery::shortid_filter;
use graphene_blockchain::{Block, Mempool, TxId};
use graphene_bloom::Membership;
use graphene_hashes::short_id_8;
use graphene_wire::messages::{
    BlockTxnMsg, GetBlockTxnMsg, InvMsg, Message, XthinBlockMsg, XthinGetDataMsg,
};
use std::collections::HashMap;

/// Accounting knobs for the XThin simulation.
#[derive(Clone, Copy, Debug)]
pub struct XthinAccounting {
    /// False-positive rate of the receiver's mempool filter (BU targets a
    /// low rate; 0.001 is representative).
    pub mempool_filter_fpr: f64,
}

impl Default for XthinAccounting {
    fn default() -> Self {
        XthinAccounting { mempool_filter_fpr: 0.001 }
    }
}

/// Relay `block` via XThin to a receiver holding `mempool`.
pub fn xthin_relay(block: &Block, mempool: &Mempool, acct: &XthinAccounting) -> BaselineReport {
    let mut report = BaselineReport { success: false, rounds: 1, ..Default::default() };

    report.total += Message::Inv(InvMsg { block_id: block.id() }).wire_size();

    // Receiver: getdata carrying the mempool filter. XThin's bandwidth
    // grows with the mempool (the paper's key criticism).
    let filter = shortid_filter(&block.id(), mempool, acct.mempool_filter_fpr);
    let getdata = XthinGetDataMsg { block_id: block.id(), mempool_filter: filter };
    report.receiver_filter_bytes = getdata.mempool_filter.serialized_size();
    report.total += Message::XthinGetData(getdata.clone()).wire_size();

    // Sender: 8-byte IDs for everything; full bodies for filter misses
    // (one batch membership sweep over the block).
    let block_ids: Vec<TxId> = block.txns().iter().map(|tx| *tx.id()).collect();
    let hits = getdata.mempool_filter.contains_batch(&block_ids);
    let missing: Vec<_> = block
        .txns()
        .iter()
        .enumerate()
        .filter(|(j, _)| !hits.get(*j))
        .map(|(_, tx)| tx.clone())
        .collect();
    let short_ids: Vec<u64> = block.txns().iter().map(|tx| short_id_8(tx.id())).collect();
    let msg = XthinBlockMsg { header: *block.header(), short_ids, missing };
    report.txn_bytes += msg.missing.iter().map(|t| t.size()).sum::<usize>();
    report.total += Message::XthinBlock(msg.clone()).wire_size();

    // Receiver: resolve short IDs, checking the local mempool first (as
    // deployed clients do) and falling back to delivered bodies. This
    // precedence is what the §6.1 manufactured-collision attack exploits:
    // a mempool transaction whose short ID collides with a block
    // transaction shadows it.
    let mut by_short: HashMap<u64, TxId> = HashMap::new();
    for tx in msg.missing.iter() {
        by_short.insert(short_id_8(tx.id()), *tx.id());
    }
    for tx in mempool.iter() {
        by_short.insert(short_id_8(tx.id()), *tx.id());
    }
    let mut ids: Vec<TxId> = Vec::with_capacity(block.len());
    let mut unresolved: Vec<u64> = Vec::new();
    for (i, short) in msg.short_ids.iter().enumerate() {
        match by_short.get(short) {
            Some(id) => ids.push(*id),
            None => {
                unresolved.push(i as u64);
                ids.push(TxId::ZERO); // placeholder
            }
        }
    }

    // Repair round: filter false positives left gaps.
    if !unresolved.is_empty() {
        report.rounds += 1;
        report.total += Message::GetBlockTxn(GetBlockTxnMsg {
            block_id: block.id(),
            indexes: unresolved.clone(),
        })
        .wire_size();
        let txns: Vec<_> = unresolved.iter().map(|&i| block.txns()[i as usize].clone()).collect();
        report.txn_bytes += txns.iter().map(|t| t.size()).sum::<usize>();
        report.total +=
            Message::BlockTxn(BlockTxnMsg { block_id: block.id(), txns: txns.clone() }).wire_size();
        for (&i, tx) in unresolved.iter().zip(&txns) {
            ids[i as usize] = *tx.id();
        }
    }

    report.success = block.validate_reconstruction(&ids).is_ok();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Scenario, ScenarioParams};
    use rand::{rngs::StdRng, SeedableRng};

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
    fn full_mempool_single_round() {
        let s = scenario(300, 1.0, 1.0, 1);
        let r = xthin_relay(&s.block, &s.receiver_mempool, &XthinAccounting::default());
        assert!(r.success);
        assert_eq!(r.rounds, 1);
        // 8 bytes per txn dominates the XThin* view.
        assert!(r.total_xthin_star() >= 8 * 300);
        assert!(r.total_xthin_star() < 8 * 300 + 300);
    }

    #[test]
    fn filter_grows_with_mempool() {
        let small = scenario(200, 0.5, 1.0, 2);
        let big = scenario(200, 5.0, 1.0, 3);
        let rs = xthin_relay(&small.block, &small.receiver_mempool, &XthinAccounting::default());
        let rb = xthin_relay(&big.block, &big.receiver_mempool, &XthinAccounting::default());
        assert!(
            rb.receiver_filter_bytes > rs.receiver_filter_bytes * 2,
            "{} vs {}",
            rb.receiver_filter_bytes,
            rs.receiver_filter_bytes
        );
    }

    #[test]
    fn missing_txns_delivered_inline() {
        let s = scenario(250, 1.0, 0.6, 4);
        let r = xthin_relay(&s.block, &s.receiver_mempool, &XthinAccounting::default());
        assert!(r.success);
        // 40% of 250 ≈ 100 txns ship in the first response.
        assert!(r.txn_bytes > 80 * 200, "txn bytes {}", r.txn_bytes);
    }

    #[test]
    fn xthin_star_excludes_filter() {
        let s = scenario(100, 2.0, 1.0, 5);
        let r = xthin_relay(&s.block, &s.receiver_mempool, &XthinAccounting::default());
        assert_eq!(r.total_xthin_star(), r.total_excluding_txns() - r.receiver_filter_bytes);
    }

    #[test]
    fn empty_mempool() {
        let s = scenario(60, 0.0, 1.0, 6);
        let r = xthin_relay(&s.block, &Mempool::new(), &XthinAccounting::default());
        assert!(r.success);
        let body: usize = s.block.txns().iter().map(|t| t.size()).sum();
        assert_eq!(r.txn_bytes, body);
    }
}
