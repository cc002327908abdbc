//! The constant-memory claim, made falsifiable: replaying a large
//! synthetic trace through the streaming path must allocate a small
//! fraction of what the materialized path does, and stay under an
//! absolute live-bytes ceiling that does not scale with trace length
//! (beyond the engine's flat 2-word-per-item assignment ledger).
//!
//! The same allocator also counts allocations: steady-state Azure
//! ingestion must average at most one per row.
//!
//! Uses a counting `#[global_allocator]`, so this file holds exactly
//! one `#[test]` — a second test in the same binary would race the
//! peak counter.

use dvbp_core::{EventSource, Instance, Item, PackRequest, PolicyKind, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_traces::{write_azure_csv, AzureSource, DirtyPolicy, HeavyTail, AZURE_TICKS_PER_DAY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
            ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live heap bytes above the starting level while `f` runs.
fn peak_during(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst).saturating_sub(base)
}

/// Heap allocations per row while an Azure source drains a written
/// trace, after a warm-up in which its buffers and tables reach their
/// working size.
#[allow(clippy::cast_precision_loss)]
fn azure_allocations_per_row() -> f64 {
    let gen = HeavyTail::new(60_000, DimVec::from_slice(&[100, 100]), 7);
    let mut csv = Vec::new();
    write_azure_csv(gen.items(), &gen.capacity, AZURE_TICKS_PER_DAY, &mut csv).unwrap();
    let mut source = AzureSource::new(
        Cursor::new(csv),
        Some(gen.capacity.clone()),
        AZURE_TICKS_PER_DAY,
        DirtyPolicy::Reject,
    )
    .unwrap();
    while source.stats().rows < 20_000 {
        source.next_event().unwrap();
    }
    let (rows, allocs) = (source.stats().rows, ALLOCS.load(Ordering::SeqCst));
    while source.next_event().unwrap().is_some() {}
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs;
    allocs as f64 / (source.stats().rows - rows) as f64
}

#[test]
fn streamed_replay_is_a_fraction_of_materialized_memory() {
    let per_row = azure_allocations_per_row();
    eprintln!("azure ingestion: {per_row:.4} allocations per row");
    assert!(
        per_row <= 1.0,
        "steady-state Azure ingestion allocates {per_row:.3} times per row"
    );

    const N: usize = 150_000;
    let capacity = DimVec::from_slice(&[100, 100]);
    let gen = HeavyTail::new(N, capacity.clone(), 31);

    let mut streamed_cost = 0;
    let streamed_peak = peak_during(|| {
        let packing = PackRequest::new(PolicyKind::FirstFit)
            .trace_mode(TraceMode::CostOnly)
            .run_source(&mut gen.source())
            .unwrap();
        streamed_cost = packing.cost();
    });

    let mut batch_cost = 0;
    let batch_peak = peak_during(|| {
        let items: Vec<Item> = gen
            .items()
            .map(|(a, e, size)| Item::new(size, a, e))
            .collect();
        let inst = Instance::new(capacity.clone(), items).unwrap();
        let packing = PackRequest::new(PolicyKind::FirstFit)
            .trace_mode(TraceMode::CostOnly)
            .run(&inst)
            .unwrap();
        batch_cost = packing.cost();
    });

    assert_eq!(streamed_cost, batch_cost, "same placements either way");
    eprintln!("peak heap: streamed {streamed_peak} B, materialized {batch_peak} B");
    assert!(
        streamed_peak * 2 <= batch_peak,
        "streaming must use at most half the materialized peak \
         (streamed {streamed_peak} B vs materialized {batch_peak} B)"
    );
    // Absolute ceiling: the ledger is 16 B/item plus O(active) state —
    // far under this bound, which a materialized 150k-item run breaks.
    let ceiling = 24 << 20;
    assert!(
        streamed_peak < ceiling,
        "streamed peak {streamed_peak} B exceeds the {ceiling} B ceiling"
    );
}
