//! Metrics collection.

use crate::peer::PeerId;
use crate::time::SimTime;
use graphene::encode_cache::CacheStats;
use std::collections::HashMap;

/// Byte and latency accounting for one simulation run. The network records
/// into it as it dispatches (peers report through their `Output`s).
#[derive(Default)]
pub struct Metrics {
    bytes_by_type: ByType,
    frames: u64,
    dropped: u64,
    corrupted_decodes: u64,
    block_arrival: HashMap<PeerId, SimTime>,
    bans: u64,
    failovers: u64,
    escalations: u64,
    stale_timers: u64,
    clamped_events: u64,
    offline_drops: u64,
    partition_drops: u64,
    duplicated_frames: u64,
    churn_outages: u64,
    crashes: u64,
    shed_frames: u64,
    resource_hwm_bytes: u64,
    event_queue_hwm: u64,
    wheel_slot_hwm: u64,
    /// Network-wide relay-cache counters, *set* (not accumulated) from the
    /// peers' own cumulative stats at the end of each `run_until`.
    cache: CacheStats,
    /// Hedged-fetch counters (issued, won, wasted), set like `cache`.
    hedges: (u64, u64, u64),
    /// Circuit-breaker counters (trips, half-open probes), set like `cache`.
    breaker: (u64, u64),
}

/// Bytes by message type byte.
struct ByType([u64; 256]);

impl Default for ByType {
    fn default() -> Self {
        ByType([0; 256])
    }
}

impl Metrics {
    /// Fresh collector.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record a frame of `bytes` with message type byte `ty`.
    pub fn record_frame(&mut self, ty: u8, bytes: usize) {
        self.bytes_by_type.0[ty as usize] += bytes as u64;
        self.frames += 1;
    }

    /// Record a fault-injected drop.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Record a frame that failed to decode (corruption or hostile).
    pub fn record_bad_decode(&mut self) {
        self.corrupted_decodes += 1;
    }

    /// Record a peer banning a misbehaving neighbor.
    pub fn record_ban(&mut self) {
        self.bans += 1;
    }

    /// Record `n` session failovers to an alternate server.
    pub fn record_failovers(&mut self, n: u32) {
        self.failovers += n as u64;
    }

    /// Record `n` recovery-ladder rung escalations.
    pub fn record_escalations(&mut self, n: u32) {
        self.escalations += n as u64;
    }

    /// Record a timer dropped on pop because its session or restart
    /// generation went stale.
    pub fn record_stale_timer(&mut self) {
        self.stale_timers += 1;
    }

    /// Overwrite the clamp total with the event queue's own cumulative
    /// count. The queue counts every past-time clamp internally, so no
    /// scheduling call site can drop one; this *sets* rather than adds
    /// because the queue's counter is cumulative across `run_until`
    /// calls.
    pub fn set_clamped_events(&mut self, total: u64) {
        self.clamped_events = total;
    }

    /// Record a frame lost because its endpoint was offline.
    pub fn record_offline_drop(&mut self) {
        self.offline_drops += 1;
    }

    /// Record a frame lost to an active network partition.
    pub fn record_partition_drop(&mut self) {
        self.partition_drops += 1;
    }

    /// Record a link-level duplicated delivery.
    pub fn record_duplicate(&mut self) {
        self.duplicated_frames += 1;
    }

    /// Record a churn outage starting.
    pub fn record_churn(&mut self) {
        self.churn_outages += 1;
    }

    /// Record a crash/restart cycle starting.
    pub fn record_crash(&mut self) {
        self.crashes += 1;
    }

    /// Record `n` inbound frames shed by the load-shedding policy.
    pub fn record_shed(&mut self, n: u64) {
        self.shed_frames += n;
    }

    /// Fold one peer's accounted-memory high-water mark into the
    /// simulation-wide maximum.
    pub fn record_resource_hwm(&mut self, bytes: u64) {
        self.resource_hwm_bytes = self.resource_hwm_bytes.max(bytes);
    }

    /// Fold the event queue's high-water marks (peak pending events,
    /// peak single-slot occupancy) into the simulation-wide maxima —
    /// the scheduler-side mirror of [`record_resource_hwm`](Self::record_resource_hwm).
    pub fn record_event_queue_hwm(&mut self, pending: u64, slot: u64) {
        self.event_queue_hwm = self.event_queue_hwm.max(pending);
        self.wheel_slot_hwm = self.wheel_slot_hwm.max(slot);
    }

    /// Overwrite the network-wide relay-cache totals. Peers keep their own
    /// cumulative [`CacheStats`]; the network folds them after each
    /// `run_until`, and *setting* (rather than adding) keeps repeated
    /// folds from double-counting.
    pub fn set_cache_totals(&mut self, totals: CacheStats) {
        self.cache = totals;
    }

    /// Network-wide relay-cache counters (hits, misses, evictions,
    /// bytes saved, bypasses) as of the last `run_until`.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// Overwrite the network-wide hedged-fetch totals (issued, won,
    /// wasted) — same set-don't-add contract as [`set_cache_totals`](Self::set_cache_totals).
    pub fn set_hedge_totals(&mut self, issued: u64, won: u64, wasted: u64) {
        self.hedges = (issued, won, wasted);
    }

    /// Overwrite the network-wide circuit-breaker totals (trips, probes).
    pub fn set_breaker_totals(&mut self, trips: u64, probes: u64) {
        self.breaker = (trips, probes);
    }

    /// Hedged fetches (issued, won, wasted) as of the last `run_until`.
    pub fn hedge_totals(&self) -> (u64, u64, u64) {
        self.hedges
    }

    /// Circuit-breaker (trips, half-open probes) as of the last `run_until`.
    pub fn breaker_totals(&self) -> (u64, u64) {
        self.breaker
    }

    /// Record the first time `peer` fully reconstructed the block.
    pub fn record_block_arrival(&mut self, peer: PeerId, at: SimTime) {
        self.block_arrival.entry(peer).or_insert(at);
    }

    /// Total bytes across all message types.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_type.0.iter().sum()
    }

    /// Bytes for one frame type.
    pub fn bytes_for(&self, ty: u8) -> u64 {
        self.bytes_by_type.0[ty as usize]
    }

    /// Number of frames sent.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Number of dropped frames.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of undecodable frames received.
    pub fn bad_decodes(&self) -> u64 {
        self.corrupted_decodes
    }

    /// Number of bans issued across all peers.
    pub fn bans(&self) -> u64 {
        self.bans
    }

    /// Number of session failovers across all peers.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Number of ladder escalations across all peers.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Stale timers dropped on pop.
    pub fn stale_timers(&self) -> u64 {
        self.stale_timers
    }

    /// Past-time events clamped to `now` by the queue.
    pub fn clamped_events(&self) -> u64 {
        self.clamped_events
    }

    /// Frames lost to offline endpoints.
    pub fn offline_drops(&self) -> u64 {
        self.offline_drops
    }

    /// Frames lost to an active partition.
    pub fn partition_drops(&self) -> u64 {
        self.partition_drops
    }

    /// Link-level duplicated deliveries.
    pub fn duplicated_frames(&self) -> u64 {
        self.duplicated_frames
    }

    /// Churn outages injected.
    pub fn churn_outages(&self) -> u64 {
        self.churn_outages
    }

    /// Crash/restart cycles injected.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Inbound frames shed under queue pressure.
    pub fn shed_frames(&self) -> u64 {
        self.shed_frames
    }

    /// Maximum accounted per-peer memory observed anywhere in the run.
    pub fn resource_hwm_bytes(&self) -> u64 {
        self.resource_hwm_bytes
    }

    /// Peak number of simultaneously pending events in the scheduler.
    pub fn event_queue_hwm(&self) -> u64 {
        self.event_queue_hwm
    }

    /// Peak occupancy of any single timing-wheel slot.
    pub fn wheel_slot_hwm(&self) -> u64 {
        self.wheel_slot_hwm
    }

    /// When `peer` first held the block, if ever.
    pub fn arrival(&self, peer: PeerId) -> Option<SimTime> {
        self.block_arrival.get(&peer).copied()
    }

    /// Number of peers that received the block.
    pub fn peers_with_block(&self) -> usize {
        self.block_arrival.len()
    }

    /// The `p`-th percentile (nearest-rank, `p` in [0, 100]) of per-peer
    /// block-arrival times, or `None` before any arrival. With every peer
    /// reached this is the session-completion latency distribution — the
    /// quantity the adaptive failure detector exists to improve.
    pub fn arrival_percentile(&self, p: f64) -> Option<SimTime> {
        if self.block_arrival.is_empty() {
            return None;
        }
        let mut times: Vec<SimTime> = self.block_arrival.values().copied().collect();
        times.sort();
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * times.len() as f64).ceil() as usize;
        Some(times[rank.saturating_sub(1).min(times.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut m = Metrics::new();
        m.record_frame(0x10, 100);
        m.record_frame(0x10, 50);
        m.record_frame(0x01, 37);
        assert_eq!(m.total_bytes(), 187);
        assert_eq!(m.bytes_for(0x10), 150);
        assert_eq!(m.frames(), 3);
    }

    #[test]
    fn chaos_counters_accumulate() {
        let mut m = Metrics::new();
        m.record_stale_timer();
        m.set_clamped_events(1);
        m.record_offline_drop();
        m.record_partition_drop();
        m.record_duplicate();
        m.record_churn();
        m.record_crash();
        m.record_shed(3);
        m.record_resource_hwm(500);
        m.record_resource_hwm(200); // max, not sum
        assert_eq!(m.stale_timers(), 1);
        assert_eq!(m.clamped_events(), 1);
        assert_eq!(m.offline_drops(), 1);
        assert_eq!(m.partition_drops(), 1);
        assert_eq!(m.duplicated_frames(), 1);
        assert_eq!(m.churn_outages(), 1);
        assert_eq!(m.crashes(), 1);
        assert_eq!(m.shed_frames(), 3);
        assert_eq!(m.resource_hwm_bytes(), 500);
    }

    #[test]
    fn event_queue_hwm_folds_as_max() {
        let mut m = Metrics::new();
        m.record_event_queue_hwm(100, 7);
        m.record_event_queue_hwm(40, 12); // later, smaller queue / hotter slot
        assert_eq!(m.event_queue_hwm(), 100);
        assert_eq!(m.wheel_slot_hwm(), 12);
    }

    #[test]
    fn first_arrival_wins() {
        let mut m = Metrics::new();
        m.record_block_arrival(PeerId(1), SimTime::from_millis(5));
        m.record_block_arrival(PeerId(1), SimTime::from_millis(9));
        assert_eq!(m.arrival(PeerId(1)), Some(SimTime::from_millis(5)));
        assert_eq!(m.peers_with_block(), 1);
    }

    #[test]
    fn detector_totals_set_not_add() {
        let mut m = Metrics::new();
        m.set_hedge_totals(5, 2, 1);
        m.set_hedge_totals(5, 2, 1); // repeated fold must not double
        m.set_breaker_totals(3, 4);
        m.set_breaker_totals(3, 4);
        assert_eq!(m.hedge_totals(), (5, 2, 1));
        assert_eq!(m.breaker_totals(), (3, 4));
    }

    #[test]
    fn arrival_percentiles_nearest_rank() {
        let mut m = Metrics::new();
        assert_eq!(m.arrival_percentile(99.0), None);
        for i in 0..10usize {
            m.record_block_arrival(PeerId(i), SimTime::from_millis((i as u64 + 1) * 10));
        }
        assert_eq!(m.arrival_percentile(50.0), Some(SimTime::from_millis(50)));
        assert_eq!(m.arrival_percentile(99.0), Some(SimTime::from_millis(100)));
        assert_eq!(m.arrival_percentile(0.0), Some(SimTime::from_millis(10)));
        assert_eq!(m.arrival_percentile(100.0), Some(SimTime::from_millis(100)));
    }
}
