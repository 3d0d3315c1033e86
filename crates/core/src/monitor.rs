//! What the data monitor of Fig. 2 reports and how it seeds a tuple's
//! first round.
//!
//! [`MonitorStats`] defined here is the statistics currency of every
//! repair layer — engine workers, sessions, and the multi-session
//! [`RepairService`](crate::RepairService) all account in it and rely
//! on its merge being an order-independent sum (invariant D2 of
//! `DETERMINISM.md` at the repository root). [`InitialRegion`] picks
//! the precomputed certain region whose `Z` is the first suggestion.
//! The monitor itself is the engine: the paper's sequential pass over
//! a stream is a one-worker
//! [`repair_opts`](crate::RepairContext::repair_opts) call whose
//! [`chunk`](crate::RepairOptions::chunk) is the stream's length.

use std::time::Duration;

/// Which precomputed region seeds the first suggestion (Exp-1(2)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InitialRegion {
    /// The highest-quality region (CRHQ).
    #[default]
    Best,
    /// The median-quality region (CRMQ).
    Median,
}

/// Aggregate processing statistics.
///
/// `tuples` / `certain` / `rounds` / `plan_probes` /
/// `plan_fallbacks` are deterministic counts: merging per-worker
/// instances reproduces the sequential run's values exactly. `elapsed`,
/// `interner_syms` and `probe_allocs` (each worker warms its own
/// scratch buffer) are wall-clock/scheduling observables and are
/// excluded from that guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Tuples processed.
    pub tuples: u64,
    /// Tuples that reached a certain fix.
    pub certain: u64,
    /// Total interaction rounds.
    pub rounds: u64,
    /// Wall-clock time spent repairing.
    pub elapsed: Duration,
    /// High-water mark of [`certainfix_relation::Interner::len`] on the
    /// global interner, sampled after each processed tuple — the
    /// ROADMAP monitoring hook for the append-only interner's growth
    /// under streaming ingest.
    pub interner_syms: u64,
    /// Key probes issued through the compiled
    /// [`RulePlan`](certainfix_rules::RulePlan)'s scratch-buffered
    /// layer in the `TransFix`/validation hot path, which every
    /// editing-rule repair runs. Deterministic: depends only on the
    /// tuples and the context, not on scheduling or block size.
    pub plan_probes: u64,
    /// Probe-buffer (re)allocations in that layer. In steady state
    /// this stays at one small constant per worker (the initial buffer
    /// warm-up — a few more with block probing, whose per-worker
    /// struct-of-arrays buffers warm once too) — the monitoring hook
    /// for the "zero per-probe heap allocations" property.
    pub probe_allocs: u64,
    /// Wide-key sub-slot fallbacks: `t[X ∩ Z]` probes on rules whose
    /// key list is wider than the plan's preallocated slot table
    /// (`|X| > 6`), served by copying out of the shared master cache
    /// instead of a pinned index. Deterministic, like `plan_probes`:
    /// merging workers reproduces the sequential count.
    pub plan_fallbacks: u64,
    /// Master epochs rebuilt by
    /// [`apply_master_delta`](crate::RepairContext::apply_master_delta)
    /// — index maintained, plan recompiled, catalog re-ranked. Always 0
    /// in per-worker accumulators (deltas are a context-level event,
    /// not a per-tuple one); sessions charge it when they merge, so a
    /// session report shows how many live-master hand-offs it spanned.
    pub plan_rebuilds: u64,
    /// Network-lane counters (all zero for in-process sources). Always
    /// 0 in per-worker accumulators — the `net` crate's `RepairServer`
    /// charges each connection's transport tallies into its session
    /// report, and the service sums them into the aggregate. Transport
    /// observables: frame/byte counts depend on client chunking, so
    /// they are outside the D2/D11 bit-identity guarantee.
    pub net: NetLaneStats,
}

/// Per-lane transport counters of the network ingest subsystem
/// (`crates/net`): one accumulator per authenticated connection,
/// merged into [`MonitorStats`] like the other counters (every field
/// sums).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetLaneStats {
    /// Request frames decoded off the socket.
    pub frames_in: u64,
    /// Response frames written to the socket.
    pub frames_out: u64,
    /// Bytes read off the socket (headers + payloads).
    pub bytes_in: u64,
    /// Bytes written to the socket (headers + payloads).
    pub bytes_out: u64,
    /// Frames rejected by the wire decoder (bad magic/version/kind,
    /// truncated or oversized payloads, …).
    pub decode_errors: u64,
    /// Sessions torn down by a fault — malformed frame, protocol
    /// violation, or a transport error mid-stream — rather than a
    /// clean shutdown.
    pub sessions_torn: u64,
}

impl NetLaneStats {
    /// Fold another lane's tallies into this one; every field sums.
    pub fn merge(&mut self, other: &NetLaneStats) {
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.decode_errors += other.decode_errors;
        self.sessions_torn += other.sessions_torn;
    }
}

impl MonitorStats {
    /// Fold another accumulator (typically a shard worker's) into this
    /// one: counts, elapsed time, and probe counters add; the interner
    /// watermark takes the maximum (so the merged watermark is
    /// monotone: it never drops below any constituent's, in whatever
    /// order shards are folded). Merging the shards of a parallel
    /// batch repair in any order yields count fields identical to a
    /// sequential run's.
    pub fn merge(&mut self, other: &MonitorStats) {
        self.tuples += other.tuples;
        self.certain += other.certain;
        self.rounds += other.rounds;
        self.elapsed += other.elapsed;
        self.interner_syms = self.interner_syms.max(other.interner_syms);
        self.plan_probes += other.plan_probes;
        self.probe_allocs += other.probe_allocs;
        self.plan_fallbacks += other.plan_fallbacks;
        self.plan_rebuilds += other.plan_rebuilds;
        self.net.merge(&other.net);
    }
    /// Mean rounds per tuple.
    pub fn avg_rounds(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.rounds as f64 / self.tuples as f64
        }
    }

    /// Mean latency per interaction round. Computed in `f64` seconds:
    /// `Duration` division only takes a `u32` divisor, and casting a
    /// long session's cumulative round count down to `u32` would
    /// silently truncate (dividing by a wrapped value — possibly 0 —
    /// once `rounds` exceeds `u32::MAX`).
    pub fn avg_round_latency(&self) -> Duration {
        if self.rounds == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.elapsed.as_secs_f64() / self.rounds as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certainfix::CertainFixConfig;
    use crate::engine::{BatchReport, RepairContext, RepairOptions};
    use crate::metrics::{evaluate_rounds, TupleEval};
    use crate::oracle::SimulatedUser;
    use certainfix_datagen::{Dataset, Dblp, DirtyConfig, Hosp, Workload};
    use certainfix_relation::Tuple;

    /// The paper's monitor over a generated stream: one worker, one
    /// chunk (so one diagram under `CertainFix+`).
    fn run_monitor<W: Workload>(
        workload: &W,
        use_bdd: bool,
        cfg: &DirtyConfig,
    ) -> (BatchReport, Dataset) {
        let ctx = RepairContext::new(workload.rules().clone(), workload.master().clone(), use_bdd);
        let dataset = Dataset::generate(workload, cfg);
        let dirty: Vec<Tuple> = dataset.inputs.iter().map(|dt| dt.dirty.clone()).collect();
        let opts = RepairOptions {
            chunk: dirty.len(),
            ..RepairOptions::default()
        };
        let report = ctx.repair_opts(&dirty, &opts, |i| {
            SimulatedUser::new(dataset.inputs[i].clean.clone())
        });
        (report, dataset)
    }

    #[test]
    fn hosp_duplicates_get_certain_fixes_in_one_round() {
        let hosp = Hosp::generate(300);
        let cfg = DirtyConfig {
            duplicate_rate: 1.0,
            noise_rate: 0.2,
            input_size: 60,
            seed: 1,
            ..Default::default()
        };
        let (report, dataset) = run_monitor(&hosp, false, &cfg);
        for (out, dt) in report.outcomes.iter().zip(&dataset.inputs) {
            assert!(out.certain, "master-backed tuple must be certain");
            assert_eq!(out.certain_at_round, Some(1));
            assert!(out.rule_backed);
            assert_eq!(&out.tuple, &dt.clean, "certain fix equals ground truth");
        }
        assert_eq!(report.stats.certain, 60);
        assert_eq!(report.stats.avg_rounds(), 1.0);
    }

    #[test]
    fn recall_t_at_round_one_tracks_duplicate_rate() {
        let hosp = Hosp::generate(300);
        let cfg = DirtyConfig {
            duplicate_rate: 0.4,
            noise_rate: 0.3,
            input_size: 200,
            seed: 2,
            ..Default::default()
        };
        let (report, dataset) = run_monitor(&hosp, false, &cfg);
        let evals: Vec<TupleEval> = report
            .outcomes
            .iter()
            .zip(&dataset.inputs)
            .map(|(o, dt)| TupleEval {
                outcome: o,
                dirty: &dt.dirty,
                clean: &dt.clean,
            })
            .collect();
        let m = evaluate_rounds(&evals, 1);
        assert!(
            (m[0].recall_t - 0.4).abs() < 0.12,
            "recall_t(1) ≈ d%: got {}",
            m[0].recall_t
        );
        assert_eq!(m[0].precision_a, 1.0, "certain fixes are never wrong");
    }

    #[test]
    fn bdd_pipeline_produces_identical_fixes() {
        let dblp = Dblp::generate(200);
        let cfg = DirtyConfig {
            duplicate_rate: 0.5,
            noise_rate: 0.2,
            input_size: 50,
            seed: 3,
            ..Default::default()
        };
        let (plain, ds1) = run_monitor(&dblp, false, &cfg);
        let (cached, ds2) = run_monitor(&dblp, true, &cfg);
        for (i, (a, b)) in plain.outcomes.iter().zip(&cached.outcomes).enumerate() {
            assert_eq!(ds1.inputs[i].dirty, ds2.inputs[i].dirty);
            assert_eq!(a.tuple, b.tuple, "tuple {i}");
            assert_eq!(a.certain, b.certain);
            assert_eq!(a.validated, b.validated);
        }
    }

    #[test]
    fn bdd_cache_actually_hits() {
        let hosp = Hosp::generate(200);
        let cfg = DirtyConfig {
            duplicate_rate: 0.0, // fresh tuples always need suggestions
            noise_rate: 0.2,
            input_size: 30,
            seed: 4,
            ..Default::default()
        };
        let stats = run_monitor(&hosp, true, &cfg).0.bdd;
        assert!(
            stats.hits > stats.misses,
            "after the first tuples the cache should serve most suggestions: {stats:?}"
        );
    }

    #[test]
    fn median_region_is_not_better_than_best() {
        let hosp = Hosp::generate(200);
        let context = |region| {
            RepairContext::with_config(
                hosp.rules().clone(),
                hosp.master().clone(),
                false,
                region,
                CertainFixConfig::default(),
            )
        };
        let (best, median) = (context(InitialRegion::Best), context(InitialRegion::Median));
        assert!(
            best.epoch().initial_suggestion().len() <= median.epoch().initial_suggestion().len()
        );
    }

    /// The satellite fix: `avg_round_latency` must not truncate the
    /// round count through `u32` — a long session whose cumulative
    /// rounds exceed `u32::MAX` used to divide by a wrapped (possibly
    /// zero) divisor.
    #[test]
    fn avg_round_latency_survives_u32_overflowing_round_counts() {
        let mut stats = MonitorStats {
            rounds: u64::from(u32::MAX) + 2, // wraps to 1 as u32
            elapsed: Duration::from_secs(4_295),
            ..MonitorStats::default()
        };
        let avg = stats.avg_round_latency();
        // ≈ 1µs per round; the wrapped-u32 division would report the
        // whole 4 295 s as a single round's latency
        assert!(avg < Duration::from_micros(2), "avg = {avg:?}");
        assert!(avg > Duration::ZERO);

        // and a wrapped-to-zero divisor must not panic
        stats.rounds = u64::from(u32::MAX) + 1; // wraps to 0 as u32
        assert!(stats.avg_round_latency() > Duration::ZERO);

        // ordinary sessions keep the exact quotient
        let small = MonitorStats {
            rounds: 4,
            elapsed: Duration::from_millis(10),
            ..MonitorStats::default()
        };
        assert_eq!(small.avg_round_latency(), Duration::from_nanos(2_500_000));
        assert_eq!(MonitorStats::default().avg_round_latency(), Duration::ZERO);
    }

    #[test]
    fn stats_merge_sums_counts_and_maxes_the_watermark() {
        let a = MonitorStats {
            tuples: 10,
            certain: 4,
            rounds: 12,
            elapsed: std::time::Duration::from_millis(5),
            interner_syms: 100,
            plan_probes: 40,
            probe_allocs: 1,
            plan_fallbacks: 3,
            plan_rebuilds: 2,
            net: NetLaneStats {
                frames_in: 5,
                frames_out: 4,
                bytes_in: 900,
                bytes_out: 700,
                decode_errors: 1,
                sessions_torn: 0,
            },
        };
        let b = MonitorStats {
            tuples: 7,
            certain: 3,
            rounds: 9,
            elapsed: std::time::Duration::from_millis(3),
            interner_syms: 250,
            plan_probes: 2,
            probe_allocs: 1,
            plan_fallbacks: 1,
            plan_rebuilds: 1,
            net: NetLaneStats {
                frames_in: 2,
                frames_out: 1,
                bytes_in: 100,
                bytes_out: 50,
                decode_errors: 0,
                sessions_torn: 1,
            },
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.tuples, 17);
        assert_eq!(merged.certain, 7);
        assert_eq!(merged.rounds, 21);
        assert_eq!(merged.elapsed, std::time::Duration::from_millis(8));
        assert_eq!(merged.interner_syms, 250, "watermark is a max, not a sum");
        assert_eq!(merged.plan_probes, 42, "plan probes sum");
        assert_eq!(merged.probe_allocs, 2, "scratch warm-ups sum");
        assert_eq!(merged.plan_fallbacks, 4, "wide-key fallbacks sum");
        assert_eq!(merged.plan_rebuilds, 3, "epoch rebuilds sum");
        assert_eq!(
            merged.net,
            NetLaneStats {
                frames_in: 7,
                frames_out: 5,
                bytes_in: 1000,
                bytes_out: 750,
                decode_errors: 1,
                sessions_torn: 1,
            },
            "net-lane counters all sum"
        );
    }

    /// The ROADMAP monitoring-hook satellite: the `interner_syms`
    /// watermark is *monotone* across merged shards — folding any
    /// sequence of shard accumulators never lowers it, the running
    /// value is non-decreasing fold by fold, and the result is the
    /// same in every merge order.
    #[test]
    fn interner_watermark_is_monotone_across_merged_shards() {
        let shard = |w: u64| MonitorStats {
            tuples: 1,
            interner_syms: w,
            ..MonitorStats::default()
        };
        let watermarks = [120u64, 40, 300, 7, 300, 299];
        let shards: Vec<MonitorStats> = watermarks.iter().map(|&w| shard(w)).collect();

        // fold forward: the running watermark never decreases, and it
        // always dominates every shard folded so far
        let mut acc = MonitorStats::default();
        let mut last = 0u64;
        for (i, s) in shards.iter().enumerate() {
            acc.merge(s);
            assert!(acc.interner_syms >= last, "watermark dropped at fold {i}");
            assert!(
                acc.interner_syms >= s.interner_syms,
                "merged watermark below shard {i}'s"
            );
            last = acc.interner_syms;
        }
        assert_eq!(acc.interner_syms, 300);
        assert_eq!(acc.tuples, 6, "counts still sum alongside the max");

        // merge order is immaterial: reverse and pairwise-tree orders
        // land on the same watermark
        let mut rev = MonitorStats::default();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(rev.interner_syms, acc.interner_syms);
        let mut pairs: Vec<MonitorStats> = shards
            .chunks(2)
            .map(|pair| {
                let mut m = pair[0];
                if let Some(b) = pair.get(1) {
                    m.merge(b);
                }
                m
            })
            .collect();
        let mut tree = pairs.remove(0);
        for p in &pairs {
            tree.merge(p);
        }
        assert_eq!(tree.interner_syms, acc.interner_syms);
    }

    #[test]
    fn processing_tracks_the_interner_watermark() {
        let hosp = Hosp::generate(50);
        let cfg = DirtyConfig {
            duplicate_rate: 1.0,
            noise_rate: 0.2,
            input_size: 5,
            seed: 9,
            ..Default::default()
        };
        let stats = run_monitor(&hosp, false, &cfg).0.stats;
        let global = certainfix_relation::Interner::global().len() as u64;
        assert!(stats.interner_syms > 0);
        assert!(stats.interner_syms <= global);
    }

    #[test]
    fn fresh_tuples_do_not_reach_certain_fixes() {
        let dblp = Dblp::generate(100);
        let cfg = DirtyConfig {
            duplicate_rate: 0.0,
            noise_rate: 0.2,
            input_size: 25,
            seed: 5,
            ..Default::default()
        };
        let (report, _) = run_monitor(&dblp, false, &cfg);
        assert!(report.outcomes.iter().all(|o| !o.rule_backed));
        assert_eq!(report.stats.certain, 0);
    }
}
