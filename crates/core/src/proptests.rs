//! Property tests over randomly generated instances for every policy.

use crate::engine::pack;
use crate::policy::{
    best_fit::BestFit, first_fit::FirstFit, last_fit::LastFit, worst_fit::WorstFit,
};
use crate::{Instance, Item, LoadMeasure, PackRequest, Packing, PolicyKind, TraceMode};
use dvbp_dimvec::DimVec;
use proptest::prelude::*;

// Non-deprecated stand-ins for the legacy crate-root shims.
fn pack_with(instance: &Instance, kind: &PolicyKind) -> Packing {
    PackRequest::new(kind.clone()).run(instance).unwrap()
}

fn pack_with_mode(instance: &Instance, kind: &PolicyKind, mode: TraceMode) -> Packing {
    PackRequest::new(kind.clone())
        .trace_mode(mode)
        .run(instance)
        .unwrap()
}

/// Strategy: a random valid instance with `d ∈ [1,4]`, up to 40 items,
/// sizes in `[1, cap]`, arrivals in `[0, 50]`, durations in `[1, 20]`.
fn instances() -> impl Strategy<Value = Instance> {
    (1usize..=4, 1usize..=40).prop_flat_map(|(d, n)| {
        let cap = 20u64;
        let item = (prop::collection::vec(1u64..=cap, d), 0u64..50, 1u64..=20)
            .prop_map(move |(size, a, dur)| Item::new(DimVec::from_slice(&size), a, a + dur));
        prop::collection::vec(item, n).prop_map(move |items| {
            Instance::new(DimVec::splat(d, cap), items).expect("generated instance valid")
        })
    })
}

/// Strategy: scalar (d = 1) instances with a small capacity so bins fill,
/// close, and reopen often — the regime where the residual mirror's block maxima
/// do real work.
fn instances_1d() -> impl Strategy<Value = Instance> {
    (1usize..=60).prop_flat_map(|n| {
        let cap = 10u64;
        let item = (1u64..=cap, 0u64..50, 1u64..=20)
            .prop_map(move |(size, a, dur)| Item::new(DimVec::scalar(size), a, a + dur));
        prop::collection::vec(item, n).prop_map(move |items| {
            Instance::new(DimVec::scalar(cap), items).expect("generated instance valid")
        })
    })
}

/// Strategy: high-dimensional instances (`d ∈ {8, 9}`) straddling
/// [`dvbp_dimvec::INLINE_DIMS`], so both the inline and the heap `DimVec`
/// representations flow through the block scan.
fn instances_hd() -> impl Strategy<Value = Instance> {
    (8usize..=9, 1usize..=30).prop_flat_map(|(d, n)| {
        let cap = 12u64;
        let item = (prop::collection::vec(1u64..=cap, d), 0u64..40, 1u64..=15)
            .prop_map(move |(size, a, dur)| Item::new(DimVec::from_slice(&size), a, a + dur));
        prop::collection::vec(item, n).prop_map(move |items| {
            Instance::new(DimVec::splat(d, cap), items).expect("generated instance valid")
        })
    })
}

/// Records the full observer event stream of one run (no probe sink, so
/// the block-scan kernel stays active).
fn record_events(inst: &Instance, policy: &mut dyn crate::Policy) -> Vec<dvbp_obs::ObsEvent> {
    let mut rec = dvbp_obs::Recorder::new();
    crate::Engine::new()
        .run(inst, policy, TraceMode::CostOnly, &mut rec)
        .expect("generated instance valid");
    rec.events
}

/// The vectorized block scan must be *observer*-identical to the scalar
/// loop, not just placement-identical: `Place.scanned` counts (the
/// provenance layer's `Σ scanned == #Probe` currency) are reproduced
/// from the hit position, so the whole event streams must match.
fn assert_block_scan_events_match_scalar(inst: &Instance) -> Result<(), TestCaseError> {
    let block = record_events(inst, &mut FirstFit::new());
    let scalar = record_events(inst, &mut FirstFit::scanning_scalar());
    prop_assert_eq!(block, scalar, "FirstFit");

    let block = record_events(inst, &mut LastFit::new());
    let scalar = record_events(inst, &mut LastFit::scanning_scalar());
    prop_assert_eq!(block, scalar, "LastFit");

    for m in [LoadMeasure::Linf, LoadMeasure::L1] {
        let block = record_events(inst, &mut BestFit::new(m));
        let scalar = record_events(inst, &mut BestFit::scanning_scalar(m));
        prop_assert_eq!(block, scalar, "BestFit[{}]", m);

        let block = record_events(inst, &mut WorstFit::new(m));
        let scalar = record_events(inst, &mut WorstFit::scanning_scalar(m));
        prop_assert_eq!(block, scalar, "WorstFit[{}]", m);
    }
    Ok(())
}

/// The migrating repack policies exercised by the live-run properties.
/// `period: 1` sweeps at every natural close and `budget: 12` covers a
/// whole small bin, so the defrag arm migrates often on these strategies.
fn repack_policies() -> [crate::RepackPolicy; 2] {
    [
        crate::RepackPolicy::DrainOnDepart { k: 2 },
        crate::RepackPolicy::BudgetedDefrag {
            budget: 12,
            period: 1,
        },
    ]
}

/// Drives `inst` live under `repack` recording the full observer stream,
/// then replays that stream with independent accounting. Properties
/// enforced at every event: per-dimension capacity holds after each
/// `Place` and `Migrate`; a `Migrate` only moves a currently active item
/// between two distinct open bins; bins close empty and never take load
/// (or reopen) afterwards.
fn audit_live_repack(inst: &Instance, repack: crate::RepackPolicy) -> Result<(), TestCaseError> {
    use dvbp_obs::ObsEvent;

    let mut live = crate::LiveRequest::new(PolicyKind::FirstFit)
        .capacity(inst.capacity.clone())
        .repack(repack)
        .observer(dvbp_obs::Recorder::new())
        .build()
        .expect("FirstFit live engine builds");
    let mut source = crate::InstanceSource::new(inst).expect("generated instance valid");
    live.drive_source(&mut source).expect("live drive succeeds");
    let (_, rec) = live.into_parts().expect("all items departed");

    let d = inst.dim();
    let cap = inst.capacity.as_slice();
    let mut sizes: Vec<Vec<u64>> = Vec::new(); // by live (arrival-order) item index
    let mut active: Vec<bool> = Vec::new();
    let mut loads: Vec<Vec<u64>> = Vec::new(); // by bin index
    let mut open: Vec<bool> = Vec::new();
    let mut ever_closed: Vec<bool> = Vec::new();

    for ev in &rec.events {
        match ev {
            ObsEvent::Arrival { item, size, .. } => {
                prop_assert_eq!(*item, sizes.len(), "live indices are dense");
                sizes.push(size.clone());
                active.push(true);
            }
            ObsEvent::BinOpen { bin, .. } => {
                if *bin >= loads.len() {
                    loads.resize(*bin + 1, vec![0; d]);
                    open.resize(*bin + 1, false);
                    ever_closed.resize(*bin + 1, false);
                }
                prop_assert!(!ever_closed[*bin], "bin {} reopened after closing", bin);
                open[*bin] = true;
            }
            ObsEvent::Place { item, bin, .. } => {
                prop_assert!(open[*bin], "placed into unopened bin {}", bin);
                for j in 0..d {
                    loads[*bin][j] += sizes[*item][j];
                    prop_assert!(
                        loads[*bin][j] <= cap[j],
                        "place of {} overflows bin {} dim {}",
                        item,
                        bin,
                        j
                    );
                }
            }
            ObsEvent::Depart { item, bin, .. } => {
                prop_assert!(active[*item], "item {} departed twice", item);
                active[*item] = false;
                for j in 0..d {
                    prop_assert!(loads[*bin][j] >= sizes[*item][j], "bin {} underflow", bin);
                    loads[*bin][j] -= sizes[*item][j];
                }
            }
            ObsEvent::Migrate { item, from, to, .. } => {
                prop_assert!(active[*item], "migrated departed item {}", item);
                prop_assert_ne!(*from, *to, "self-migration");
                prop_assert!(open[*to], "migrated into closed bin {}", to);
                for j in 0..d {
                    prop_assert!(loads[*from][j] >= sizes[*item][j], "bin {} underflow", from);
                    loads[*from][j] -= sizes[*item][j];
                    loads[*to][j] += sizes[*item][j];
                    prop_assert!(
                        loads[*to][j] <= cap[j],
                        "migration of {} overflows bin {} dim {}",
                        item,
                        to,
                        j
                    );
                }
            }
            ObsEvent::BinClose { bin, .. } => {
                prop_assert!(
                    loads[*bin].iter().all(|&l| l == 0),
                    "bin {} closed while loaded",
                    bin
                );
                open[*bin] = false;
                ever_closed[*bin] = true;
            }
            _ => {}
        }
    }
    prop_assert!(active.iter().all(|a| !a), "items still active at run end");
    Ok(())
}

fn all_kinds() -> Vec<PolicyKind> {
    let mut kinds = PolicyKind::paper_suite(99);
    kinds.push(PolicyKind::BestFit(crate::LoadMeasure::L1));
    kinds.push(PolicyKind::BestFit(crate::LoadMeasure::L2));
    kinds.push(PolicyKind::WorstFit(crate::LoadMeasure::L1));
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy produces a feasible, internally consistent packing.
    #[test]
    fn packings_always_valid(inst in instances()) {
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            prop_assert!(p.verify(&inst).is_ok(), "{}: {:?}", kind.name(), p.verify(&inst));
        }
    }

    /// Full-candidate policies never open a bin while one fits.
    #[test]
    fn any_fit_property_holds(inst in instances()) {
        for kind in all_kinds().into_iter().filter(PolicyKind::is_full_candidate_any_fit) {
            let p = pack_with(&inst, &kind);
            prop_assert!(p.verify_any_fit(&inst).is_ok(), "{}", kind.name());
        }
    }

    /// cost ≥ span for every policy (Lemma 1(iii) applied to the
    /// algorithm's own packing).
    #[test]
    fn cost_at_least_span(inst in instances()) {
        let span = inst.span();
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            prop_assert!(p.cost() >= span, "{}: {} < {span}", kind.name(), p.cost());
        }
    }

    /// The number of bins any policy opens is at most the number of items,
    /// and at least the number needed at the busiest instant.
    #[test]
    fn bin_count_sane(inst in instances()) {
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            prop_assert!(p.num_bins() <= inst.len());
            prop_assert!(p.num_bins() >= 1 || inst.is_empty());
            prop_assert!(p.max_concurrent_bins() <= p.num_bins());
        }
    }

    /// Every item is assigned to a bin whose usage period covers the
    /// item's active interval.
    #[test]
    fn usage_covers_items(inst in instances()) {
        let p = pack_with(&inst, &PolicyKind::MoveToFront);
        for (i, item) in inst.items.iter().enumerate() {
            let usage = p.bins[p.assignment[i].0].usage();
            prop_assert!(usage.covers(&item.interval()));
        }
    }

    /// Next Fit opens at least as many bins as First Fit... is NOT a
    /// theorem — but Next Fit's cost is never lower than the span and the
    /// single-current-bin invariant holds: bins receive disjoint,
    /// consecutive runs of the item sequence **ordered by packing time**.
    #[test]
    fn next_fit_packs_consecutive_runs(inst in instances()) {
        let p = pack_with(&inst, &PolicyKind::NextFit);
        // Reconstruct packing order from the trace; each Packed event's bin
        // must be the same as, or newer than, every later... i.e. the bin
        // sequence of packing events never returns to an abandoned bin.
        let mut seen_after: Option<usize> = None;
        let mut current = usize::MAX;
        for ev in &p.trace {
            if let crate::TraceEvent::Packed { bin, .. } = ev {
                if bin.0 != current {
                    if let Some(prev_max) = seen_after {
                        prop_assert!(bin.0 > prev_max, "Next Fit returned to an old bin");
                    }
                    seen_after = Some(seen_after.map_or(bin.0, |m| m.max(bin.0)));
                    current = bin.0;
                }
            }
        }
    }

    /// On d = 1 the block maxima are plain per-block maximum residuals:
    /// the two-level scan must return the same (lowest-index) open bin
    /// as the scalar loop at every decision, so the packings coincide.
    #[test]
    fn block_scan_first_fit_matches_scalar_on_1d(inst in instances_1d()) {
        let block = pack(&inst, &mut FirstFit::new());
        let scalar = pack(&inst, &mut FirstFit::scanning_scalar());
        prop_assert_eq!(&block.assignment, &scalar.assignment);
        prop_assert_eq!(block, scalar);
    }

    /// Block-scan runs emit byte-identical observer streams to scalar
    /// runs, `Place.scanned` included.
    #[test]
    fn block_scan_events_match_scalar(inst in instances()) {
        assert_block_scan_events_match_scalar(&inst)?;
    }

    /// Same stream identity at `d ∈ {8, 9}` (remainder rows of the SoA
    /// mirror's lane-padded layout).
    #[test]
    fn block_scan_events_match_scalar_high_dim(inst in instances_hd()) {
        assert_block_scan_events_match_scalar(&inst)?;
    }

    /// `TraceMode::CostOnly` skips bookkeeping, not decisions: assignment,
    /// cost, and max concurrency agree with a `Full` run.
    #[test]
    fn cost_only_matches_full(inst in instances()) {
        for kind in all_kinds() {
            let full = pack_with_mode(&inst, &kind, TraceMode::Full);
            let cost_only = pack_with_mode(&inst, &kind, TraceMode::CostOnly);
            prop_assert_eq!(&full.assignment, &cost_only.assignment, "{}", kind.name());
            prop_assert_eq!(full.cost(), cost_only.cost(), "{}", kind.name());
            prop_assert_eq!(
                full.max_concurrent_bins(),
                cost_only.max_concurrent_bins(),
                "{}", kind.name()
            );
        }
    }

    /// `max_concurrent_bins()` (sweep-line over bin usage intervals)
    /// equals the high-water mark of open bins derived from the trace.
    #[test]
    fn max_concurrent_bins_matches_trace(inst in instances()) {
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            let mut open = 0usize;
            let mut high_water = 0usize;
            for ev in &p.trace {
                match ev {
                    crate::TraceEvent::Packed { opened_new: true, .. } => {
                        open += 1;
                        high_water = high_water.max(open);
                    }
                    crate::TraceEvent::Closed { .. } => open -= 1,
                    crate::TraceEvent::Packed { .. } | crate::TraceEvent::Migrated { .. } => {}
                }
            }
            prop_assert_eq!(p.max_concurrent_bins(), high_water, "{}", kind.name());
        }
    }

    /// High-churn 1-d live runs under every migrating repack policy:
    /// migrations never violate capacity, never move a departed item,
    /// and never touch a closed bin (the small capacity keeps bins
    /// filling, draining, and closing, so plans actually execute).
    #[test]
    fn repack_respects_capacity_and_liveness_1d(inst in instances_1d()) {
        for repack in repack_policies() {
            audit_live_repack(&inst, repack)?;
        }
    }

    /// The same live-run invariants on multi-dimensional instances,
    /// where a migration destination must fit in *every* dimension.
    #[test]
    fn repack_respects_capacity_and_liveness(inst in instances()) {
        for repack in repack_policies() {
            audit_live_repack(&inst, repack)?;
        }
    }

    /// `Packing::cost()` (the sum of per-bin usage lengths, eq. 1) equals
    /// the sweep-line integral `∫ |open bins at t| dt` over the bins'
    /// usage intervals — the two spellings of the objective agree.
    #[test]
    fn cost_equals_open_bin_integral(inst in instances()) {
        for kind in all_kinds() {
            let p = pack_with(&inst, &kind);
            let usages: Vec<dvbp_sim::Interval> =
                p.bins.iter().map(crate::BinUsage::usage).collect();
            let mut integral: dvbp_sim::Cost = 0;
            dvbp_sim::sweep::sweep(&usages, |slice| {
                integral += slice.active.len() as dvbp_sim::Cost
                    * dvbp_sim::Cost::from(slice.interval.len());
            });
            prop_assert_eq!(p.cost(), integral, "{}", kind.name());
        }
    }
}

/// A small `pack-dense`-shaped stream: d = 4, sizes U{1..100} in bins
/// of 100, arrivals uniform over `T = n` ticks, lifetimes U{1..μ}. Any-Fit
/// policies keep refilling their oldest bins, so those stay open while
/// thousands of younger ones open and close behind them.
fn long_sparse_stream() -> Instance {
    let (d, n, mu) = (4usize, 4000u64, 160u64);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let items = (0..n)
        .map(|_| {
            let size: Vec<u64> = (0..d).map(|_| 1 + next(100)).collect();
            let a = next(n);
            Item::new(DimVec::from_slice(&size), a, a + 1 + next(mu))
        })
        .collect();
    Instance::new(DimVec::splat(d, 100), items).expect("generated instance valid")
}

/// Largest ratio, over bin openings, of the open-bin id span to the
/// number of open bins.
fn max_span_ratio(p: &Packing) -> f64 {
    let mut worst = 0.0f64;
    for (b, bin) in p.bins.iter().enumerate() {
        let t = bin.opened;
        let open: Vec<usize> = (0..=b)
            .filter(|&x| p.bins[x].opened <= t && t < p.bins[x].closed)
            .collect();
        let span = b - open[0] + 1;
        worst = worst.max(span as f64 / open.len() as f64);
    }
    worst
}

/// The block scan in the sparse-span regime a long stream reaches: the
/// open bins' ids spread over a span many times the open-bin count, so
/// the slot-compacted mirror holds only a thin slice of the ids ever
/// opened. Block and scalar scans must agree on every event, `Place`
/// scan counts included.
#[test]
fn sparse_span_block_scan_matches_scalar() {
    let inst = long_sparse_stream();
    let ff = pack(&inst, &mut FirstFit::scanning_scalar());
    let ratio = max_span_ratio(&ff);
    assert!(
        ratio > 8.0,
        "stream never left the dense regime: {ratio:.1}"
    );
    assert!(ff.num_bins() > 20 * ff.max_concurrent_bins());

    let scanned = |events: &[dvbp_obs::ObsEvent]| -> u64 {
        events
            .iter()
            .filter_map(|e| match e {
                dvbp_obs::ObsEvent::Place { scanned, .. } => Some(*scanned),
                _ => None,
            })
            .sum()
    };
    let check = |name: &str, block: &mut dyn crate::Policy, scalar: &mut dyn crate::Policy| {
        let block = record_events(&inst, block);
        let scalar = record_events(&inst, scalar);
        assert_eq!(scanned(&block), scanned(&scalar), "{name}");
        assert!(
            block == scalar,
            "{name}: block and scalar event streams differ"
        );
    };
    check(
        "FirstFit",
        &mut FirstFit::new(),
        &mut FirstFit::scanning_scalar(),
    );
    check(
        "LastFit",
        &mut LastFit::new(),
        &mut LastFit::scanning_scalar(),
    );
    check(
        "BestFit",
        &mut BestFit::new(LoadMeasure::Linf),
        &mut BestFit::scanning_scalar(LoadMeasure::Linf),
    );
    check(
        "WorstFit",
        &mut WorstFit::new(LoadMeasure::Linf),
        &mut WorstFit::scanning_scalar(LoadMeasure::Linf),
    );
}

/// A mid-run switch onto a scanning policy latches the residual mirror
/// with bins already open, so it is rebuilt from the load arena. Every
/// placement after the switch must be the lowest-id open bin that fits,
/// checked against a load model kept by the test.
#[test]
fn mirror_latched_mid_run_places_like_first_fit() {
    let inst = long_sparse_stream();
    let ops = crate::live_ops(&inst);
    let cap = inst.capacity.as_slice();
    let mut live = crate::LiveRequest::new(PolicyKind::NextFit)
        .capacity(inst.capacity.clone())
        .build()
        .unwrap();
    // Model: open bin -> (load, resident count); item -> (live id, bin).
    let mut bins: std::collections::BTreeMap<crate::BinId, (Vec<u64>, usize)> =
        std::collections::BTreeMap::new();
    let mut local = std::collections::HashMap::new();
    let mut open_at_switch = 0;
    for (k, op) in ops.iter().enumerate() {
        if k == ops.len() / 2 {
            open_at_switch = live.open_bins();
            live.switch_policy(PolicyKind::FirstFit).unwrap();
        }
        match op {
            crate::LiveOp::Arrive { item, size, time } => {
                let expect = bins
                    .iter()
                    .find(|(_, (load, _))| (0..cap.len()).all(|j| load[j] + size[j] <= cap[j]))
                    .map(|(&b, _)| b);
                let placed = live.arrive(size.clone(), *time).unwrap();
                if k >= ops.len() / 2 {
                    match expect {
                        Some(b) => assert_eq!(placed.bin, b, "op {k}"),
                        None => assert!(!bins.contains_key(&placed.bin), "op {k}"),
                    }
                }
                let (load, count) = bins
                    .entry(placed.bin)
                    .or_insert_with(|| (vec![0; cap.len()], 0));
                (0..cap.len()).for_each(|j| load[j] += size[j]);
                *count += 1;
                local.insert(*item, (placed.item, placed.bin, size.clone()));
            }
            crate::LiveOp::Depart { item, time } => {
                let (id, bin, size) = &local[item];
                live.depart(*id, *time).unwrap();
                let (load, count) = bins.get_mut(bin).unwrap();
                (0..cap.len()).for_each(|j| load[j] -= size[j]);
                *count -= 1;
                if *count == 0 {
                    bins.remove(bin);
                }
            }
        }
    }
    assert!(
        open_at_switch > 20,
        "switch saw only {open_at_switch} open bins"
    );
}
