//! Targeted audit of the residual mirror's update/query paths, via the
//! differential harness.
//!
//! The mirror has three mutation sites — pack (subtract, recomputing a
//! block maximum the slot held), unpack (add back, raising the
//! maximum), close (tombstone) — plus growth (restride) and compaction,
//! both of which rebuild the block maxima. Each test shapes an instance
//! family so one of those paths dominates, then requires every
//! block-scanning policy to agree exactly with the reference simulator
//! and with its scalar-loop twin (layer 4). The instances were first
//! written for the segment tree the block scan replaced.

use dvbp_conformance::diff;
use dvbp_core::{Instance, Item, LoadMeasure, PolicyKind};
use dvbp_dimvec::DimVec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The block-scanning kinds.
fn scanning_kinds() -> [PolicyKind; 5] {
    [
        PolicyKind::FirstFit,
        PolicyKind::LastFit,
        PolicyKind::BestFit(LoadMeasure::Linf),
        PolicyKind::WorstFit(LoadMeasure::Linf),
        PolicyKind::RandomFit { seed: 3 },
    ]
}

fn check(inst: &Instance) {
    for kind in scanning_kinds() {
        diff::check_policy(inst, &kind).unwrap();
    }
}

/// Growth path: every item blocks sharing, so the slot count doubles
/// past 1, 2, 4, …, 64 within one run, crossing the mirror's first
/// stride growth and the one-block direct path.
#[test]
fn mirror_growth_across_many_doublings() {
    let items: Vec<Item> = (0..100u64)
        .map(|t| Item::new(DimVec::scalar(6), t, t + 200))
        .collect();
    let inst = Instance::new(DimVec::scalar(10), items).unwrap();
    check(&inst);
}

/// Departure path: long-lived slivers keep bins open while large items
/// come and go, so residuals oscillate between nearly-empty and full.
#[test]
fn residual_oscillation_under_churn() {
    let mut items = Vec::new();
    for b in 0..6u64 {
        items.push(Item::new(DimVec::scalar(1), 0, 100 + b));
    }
    for round in 0..10u64 {
        for b in 0..6u64 {
            let a = 1 + round * 8 + b;
            items.push(Item::new(DimVec::scalar(9), a, a + 4));
        }
    }
    let inst = Instance::new(DimVec::scalar(10), items).unwrap();
    check(&inst);
}

/// Close path: waves of bins all close at once, then a new wave arrives
/// at the same tick; stale (non-zeroed) slots or block maxima would resurrect them.
#[test]
fn mass_closure_then_same_tick_arrivals() {
    let mut items = Vec::new();
    for wave in 0..5u64 {
        let a = wave * 10;
        for _ in 0..8 {
            items.push(Item::new(DimVec::scalar(7), a, a + 10));
        }
    }
    let inst = Instance::new(DimVec::scalar(10), items).unwrap();
    check(&inst);
}

/// Randomized sweep over the whole surface: many seeds, sizes spanning
/// sliver-to-full, durations spanning instant-to-run-length.
#[test]
fn randomized_audit_sweep() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(20..=120usize);
        let cap = rng.random_range(4..=16u64);
        let items: Vec<Item> = (0..n)
            .map(|_| {
                let a = rng.random_range(0..50u64);
                let dur = rng.random_range(1..=30u64);
                Item::new(DimVec::scalar(rng.random_range(1..=cap)), a, a + dur)
            })
            .collect();
        let inst = Instance::new(DimVec::scalar(cap), items).unwrap();
        for kind in scanning_kinds() {
            diff::check_policy(&inst, &kind).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }
}
