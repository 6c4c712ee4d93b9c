//! The metric table and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names,
//! units and kinds; `BENCHMARK.json` repeats the names and units (a test
//! keeps the two in step) and `README.md` says what each one measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a metric is deterministic for a given seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A count or a ratio of counts: repeats bit for bit for the same seed.
    Exact,
    /// A wall-clock measurement.
    Timed,
}

/// One metric's name, unit and kind.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Exact or timed.
    pub kind: Kind,
}

const fn exact(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, kind: Kind::Exact }
}

const fn timed(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, kind: Kind::Timed }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    timed("setup_s", "s"),
    timed("relays_per_s", "1/s"),
    timed("wall_p50_ms", "ms"),
    exact("bytes_per_block", "B"),
    exact("messages_per_block", "count"),
    exact("success_rate", "ratio"),
    timed("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    timed("hashes.merkle_us", "us"),
    exact("hashes.merkle_leaves", "count"),
    timed("bloom.s_probe_us", "us"),
    exact("bloom.s_probes", "count"),
    exact("bloom.s_bytes", "B"),
    timed("bloom.r_insert_us", "us"),
    exact("bloom.r_bytes", "B"),
    timed("iblt.peel_us", "us"),
    exact("iblt.i_bytes", "B"),
    exact("iblt.j_bytes", "B"),
    exact("iblt.peel_ok_rate", "ratio"),
    timed("core.p1_encode_us", "us"),
    timed("core.p1_decode_us", "us"),
    timed("core.p2_request_us", "us"),
    timed("core.p2_respond_us", "us"),
    timed("core.p2_complete_us", "us"),
    exact("core.p1_ok_rate", "ratio"),
    exact("core.extra_fetch_rate", "ratio"),
    exact("core.rounds_per_block", "count"),
    exact("core.fallback_rate", "ratio"),
    timed("wire.encode_us", "us"),
    timed("wire.decode_us", "us"),
    exact("wire.frame_bytes", "B"),
    timed("blockchain.confirm_us", "us"),
    timed("netsim.setup_graph_s", "s"),
    timed("netsim.setup_peers_s", "s"),
    timed("netsim.ns_per_frame", "ns"),
    timed("netsim.queue_ns_per_event", "ns"),
    exact("netsim.frames", "count"),
    exact("netsim.bytes.inv", "B"),
    exact("netsim.bytes.getdata", "B"),
    exact("netsim.bytes.graphene_block", "B"),
    exact("netsim.bytes.graphene_request", "B"),
    exact("netsim.bytes.graphene_recovery", "B"),
    exact("netsim.bytes.get_graphene_txn", "B"),
    exact("netsim.bytes.block_txn", "B"),
    exact("netsim.bytes.get_full_block", "B"),
    exact("netsim.bytes.full_block", "B"),
    exact("netsim.bytes.other", "B"),
    exact("netsim.event_queue_hwm", "count"),
    exact("netsim.wheel_slot_hwm", "count"),
    exact("netsim.shed_frames", "count"),
    exact("netsim.dropped", "count"),
    exact("netsim.stale_timers", "count"),
    exact("netsim.escalations", "count"),
    exact("netsim.resource_hwm_bytes", "B"),
    exact("netsim.sim_p50_ms", "ms"),
    exact("netsim.sim_p99_ms", "ms"),
    timed("netsim.receipt_share_est", "ratio"),
    timed("trace.untraced_p50_us", "us"),
    timed("trace.untraced_p99_us", "us"),
    timed("trace.traced_p50_us", "us"),
    timed("trace.overhead_us", "us"),
    timed("setup.generator_s", "s"),
    timed("setup.program_s", "s"),
    timed("setup.generator_share", "ratio"),
];

/// The outcome of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations whose output was wrong. A wrong output ends the run with
    /// an error instead, so a printed report always has 0 here.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record `value` under `name`, which must be a known metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The metric table this report must fill: per-layer when traced.
    pub fn expected(traced: bool) -> &'static [Spec] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Check that the report holds exactly the metrics of `table`, each a
    /// finite number.
    pub fn validate(&self, table: &[Spec]) -> Result<(), String> {
        for s in table {
            match self.get(s.name) {
                None => return Err(format!("metric {} was not measured", s.name)),
                Some(v) if !v.is_finite() => return Err(format!("metric {} is {v}", s.name)),
                Some(_) => {}
            }
        }
        if let Some(extra) = self.metrics.keys().find(|k| !table.iter().any(|s| s.name == **k)) {
            return Err(format!("metric {extra} is not in this run's table"));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(())
    }

    /// Human-readable lines, one metric each, in table order.
    pub fn lines(&self, table: &[Spec]) -> String {
        let mut out = String::new();
        for s in table {
            let kind = match s.kind {
                Kind::Exact => "exact",
                Kind::Timed => "timed",
            };
            let v = self.get(s.name).unwrap_or(f64::NAN);
            let _ = writeln!(out, "{:<32} {:>18} {:<6} {kind}", s.name, fmt_num(v), s.unit);
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self, table: &[Spec]) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, s) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = self.get(s.name).unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.name,
                fmt_num(v),
                s.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The spec of metric `name`, if it is one.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Shortest decimal that reads back as `v` (all its digits), as JSON.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|t| t.name != s.name), "duplicate {}", s.name);
            assert!(s.name.len() <= 64, "{}", s.name);
            assert!(s.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(s.unit.len() <= 16);
        }
        assert!(spec("setup_s").is_some_and(|s| s.unit == "s"));
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report { attempted: 3, ..Default::default() };
        for s in END_TO_END {
            r.set(s.name, 0.25);
        }
        r.validate(END_TO_END).expect("complete report");
        let j = r.json(END_TO_END);
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(j.ends_with("}}"));
        assert!(!j.contains('\n'));
        r.set("hashes.merkle_us", 1.0);
        assert!(r.validate(END_TO_END).is_err(), "stray metric accepted");
    }
}
