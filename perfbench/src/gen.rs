//! Input generation from the `--seed`.
//!
//! Every workload draws its transactions from one pre-hashed pool, so the
//! SHA-256 cost of minting transaction ids is paid once per pool rather
//! than once per block and mempool. Blocks and mempools are then index
//! draws into the pool: each relay case takes `n + extras` distinct pool
//! transactions, the block is the first `n`, and the receiver holds a
//! prefix of the block plus the extras.
//!
//! Set-up time is split between the benchmark's own generator (random
//! payloads and index draws) and calls into the program (`Transaction::new`
//! hashing, `Block::assemble`, `Mempool` construction), so that work a
//! change moves into construction shows up as program set-up time.

use graphene_blockchain::{Block, Mempool, OrderingScheme, Transaction, TxId};
use graphene_hashes::Digest;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// Payload size of every generated transaction (the repository's default
/// `TxProfile::Fixed(250)`).
pub const TX_BYTES: usize = 250;

/// Where set-up time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTime {
    /// The benchmark's own work: random payloads and index draws.
    pub generator: Duration,
    /// Calls into the program: hashing, block assembly, mempool inserts.
    pub program: Duration,
}

impl SetupTime {
    /// Both parts together.
    pub fn total(&self) -> Duration {
        self.generator + self.program
    }

    fn gen<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.generator += t.elapsed();
        v
    }

    fn program<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.program += t.elapsed();
        v
    }
}

/// The seed's random stream for one input family. Distinct `stream`
/// values give independent inputs from the same `--seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `count` transactions with random payloads, hashed once.
pub fn tx_pool(rng: &mut StdRng, count: usize, time: &mut SetupTime) -> Vec<Transaction> {
    let payloads: Vec<Vec<u8>> = time.gen(|| {
        (0..count)
            .map(|_| {
                let mut p = vec![0u8; TX_BYTES];
                rng.fill(&mut p[..]);
                p
            })
            .collect()
    });
    time.program(|| payloads.into_iter().map(Transaction::new).collect())
}

/// Shape of a two-party relay case.
#[derive(Clone, Copy, Debug)]
pub struct CaseShape {
    /// Block transactions (`n`).
    pub block_txns: usize,
    /// Block transactions the receiver holds (a prefix of the block).
    pub held: usize,
    /// Receiver mempool transactions that are not in the block.
    pub extras: usize,
}

/// One relay input: a block and the receiver's mempool.
pub struct RelayCase {
    /// The block the sender relays.
    pub block: Block,
    /// `block.ids()`, the expected reconstruction.
    pub ids: Vec<TxId>,
    /// The receiver's mempool.
    pub mempool: Mempool,
}

/// `count` relay cases of `shape`, drawn from `pool`.
///
/// Each case takes `block_txns + extras` distinct pool transactions by a
/// partial Fisher–Yates shuffle of the pool's index permutation (which
/// carries over from case to case, so draws stay uniform).
pub fn relay_cases(
    rng: &mut StdRng,
    pool: &[Transaction],
    shape: CaseShape,
    count: usize,
    time: &mut SetupTime,
) -> Vec<RelayCase> {
    let take = shape.block_txns + shape.extras;
    assert!(take <= pool.len(), "pool of {} cannot supply {take} distinct txns", pool.len());
    assert!(shape.held <= shape.block_txns);
    let mut perm: Vec<u32> = (0..pool.len() as u32).collect();
    (0..count)
        .map(|i| {
            let (block_txns, held, extras) = time.gen(|| {
                for j in 0..take {
                    let k = rng.random_range(j..perm.len());
                    perm.swap(j, k);
                }
                let pick = |r: std::ops::Range<usize>| -> Vec<Transaction> {
                    perm[r].iter().map(|&k| pool[k as usize].clone()).collect()
                };
                (pick(0..shape.block_txns), pick(0..shape.held), pick(shape.block_txns..take))
            });
            time.program(|| {
                // Distinct header times keep block ids distinct even if
                // two cases drew the same transactions.
                let block = Block::assemble(
                    Digest::ZERO,
                    1_700_000_000 + i as u32,
                    block_txns,
                    OrderingScheme::Ctor,
                );
                let ids = block.ids();
                let mempool: Mempool = held.into_iter().chain(extras).collect();
                RelayCase { block, ids, mempool }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_have_the_requested_shape() {
        let mut t = SetupTime::default();
        let mut r = rng(7, 1);
        let pool = tx_pool(&mut r, 500, &mut t);
        let shape = CaseShape { block_txns: 40, held: 36, extras: 80 };
        let cases = relay_cases(&mut r, &pool, shape, 5, &mut t);
        for c in &cases {
            assert_eq!(c.block.len(), 40);
            assert_eq!(c.mempool.len(), 36 + 80);
            let held = c.ids.iter().filter(|id| c.mempool.contains(id)).count();
            assert_eq!(held, 36);
        }
        assert_ne!(cases[0].ids, cases[1].ids);
        assert!(t.program > Duration::ZERO && t.generator > Duration::ZERO);
    }

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut t = SetupTime::default();
            let mut r = rng(seed, 1);
            let pool = tx_pool(&mut r, 200, &mut t);
            let shape = CaseShape { block_txns: 10, held: 10, extras: 20 };
            relay_cases(&mut r, &pool, shape, 3, &mut t)
                .into_iter()
                .map(|c| c.ids)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
