//! Blockchain substrate: transactions, blocks, mempools and synthetic
//! workloads.
//!
//! The paper evaluates Graphene inside real blockchain clients (Bitcoin
//! Cash, Ethereum). This crate rebuilds the pieces of that environment the
//! protocol actually touches:
//!
//! * [`tx`] — transactions with double-SHA256 IDs and realistic sizes;
//! * [`block`] — headers (80-byte Bitcoin layout), blocks, Merkle-root
//!   validation, and CTOR (canonical transaction ordering, §6.2);
//! * [`mempool`] — a transaction pool with per-peer `inv` bookkeeping (the
//!   "log" §2.2 describes for proactively sending missing transactions);
//! * [`workload`] — deterministic generators for every scenario in the
//!   evaluation: receiver-has-everything (Fig. 14), receiver-missing-a-
//!   fraction (Figs. 16–17), mempool synchronization with `m = n` (Fig. 18),
//!   and BCH/ETH-like block-size distributions (Figs. 12–13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod mempool;
pub mod tx;
pub mod workload;

pub use block::{Block, BlockError, CheckedIds, Header, OrderingScheme};
pub use mempool::{Mempool, PeerView};
pub use tx::{Transaction, TxId};
pub use workload::{IdScenario, Scenario, ScenarioParams, TxProfile};
