//! Enforces the datapath's allocation invariant: a command allocates at most once per
//! data row, on that row's first write (data rows materialize lazily; see
//! `Subarray::new`), and never otherwise. Once a subarray is warmed up (cost table
//! registered, trace capacity reserved, every destination row written once), AAP / AP /
//! TRA commands must not touch the heap at all — no `BitRow` clones, no row
//! materialization, no trace growth beyond the reserved capacity.
//!
//! The whole check lives in a single `#[test]` so the global allocation counter is not
//! perturbed by concurrently running tests in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use simdram_dram::{
    BGroupRow, BitRow, CommandCosts, DramConfig, RowAddr, RowOp, RowOpBlock, RowRef, Subarray,
    TraceAggregate, WriteRef,
};

struct CountingAllocator;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn per_command_datapath_never_allocates() {
    let config = DramConfig::default();
    let mut sa = Subarray::new(&config);
    let columns = sa.columns();
    sa.write_row(0, &BitRow::splat_word(0xDEAD_BEEF_0123_4567, columns));
    sa.write_row(1, &BitRow::splat_word(0x0F0F_F0F0_AAAA_5555, columns));

    // Exercise every command shape once: growth of the trace's cost table and any lazy
    // one-time setup happens here, outside the measured window.
    let commands: &[&dyn Fn(&mut Subarray)] = &[
        &|sa| sa.aap(RowAddr::Data(0), RowAddr::Data(2)).unwrap(),
        &|sa| {
            sa.aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::T0))
                .unwrap()
        },
        &|sa| {
            sa.aap(RowAddr::Data(1), RowAddr::BGroup(BGroupRow::T1))
                .unwrap()
        },
        &|sa| {
            sa.aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::T2))
                .unwrap()
        },
        &|sa| {
            sa.aap(RowAddr::BGroup(BGroupRow::C0), RowAddr::Data(3))
                .unwrap()
        },
        &|sa| {
            sa.aap(RowAddr::BGroup(BGroupRow::C1), RowAddr::Data(4))
                .unwrap()
        },
        &|sa| {
            sa.aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::Dcc0))
                .unwrap()
        },
        &|sa| {
            sa.aap(RowAddr::BGroup(BGroupRow::Dcc0N), RowAddr::Data(5))
                .unwrap()
        },
        &|sa| {
            sa.aap(
                RowAddr::BGroup(BGroupRow::Dcc0),
                RowAddr::BGroup(BGroupRow::Dcc0N),
            )
            .unwrap()
        },
        &|sa| sa.ap(RowAddr::Data(0)).unwrap(),
        &|sa| sa.ap(RowAddr::BGroup(BGroupRow::Dcc1N)).unwrap(),
        &|sa| {
            sa.ap_tra(BGroupRow::T0, BGroupRow::T1, BGroupRow::T2)
                .unwrap()
        },
        // General (non-fused) TRA path: negated wordline and constant operands.
        &|sa| {
            sa.ap_tra(BGroupRow::T0, BGroupRow::Dcc0N, BGroupRow::C1)
                .unwrap()
        },
        &|sa| {
            sa.aap_tra(
                BGroupRow::T0,
                BGroupRow::T1,
                BGroupRow::T2,
                RowAddr::Data(6),
            )
            .unwrap()
        },
        &|sa| {
            sa.aap_tra(
                BGroupRow::T1,
                BGroupRow::T2,
                BGroupRow::T3,
                RowAddr::BGroup(BGroupRow::Dcc1),
            )
            .unwrap()
        },
    ];
    const ROUNDS: usize = 8;
    for op in commands {
        op(&mut sa);
    }

    // The allocation counter is process-global, so a runtime thread (libtest's I/O
    // capture, platform lazy init) can allocate during the measured window and produce
    // a spurious non-zero count. The datapath itself is deterministic: if ANY attempt
    // observes zero allocations, every allocation seen by other attempts came from
    // outside the datapath. Retry a few times and take the cleanest window.
    const ATTEMPTS: usize = 5;
    let mut best = usize::MAX;
    for _ in 0..ATTEMPTS {
        sa.drain_trace();
        sa.reserve_trace(commands.len() * ROUNDS);
        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        for _ in 0..ROUNDS {
            for op in commands {
                op(&mut sa);
            }
        }
        best = best.min(ALLOC_CALLS.load(Ordering::SeqCst) - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best,
        0,
        "the per-command datapath must not allocate (best attempt saw {best} allocations \
         across {} commands)",
        commands.len() * ROUNDS
    );

    // The commands above really did record into the trace.
    assert_eq!(sa.trace().history_len(), commands.len() * ROUNDS);

    // Same invariant for the compiled row-op path: applying a pre-compiled block —
    // every operation shape, both trace modes — must not allocate once the block exists
    // and trace capacity is reserved (compilation itself may allocate, once).
    let costs = CommandCosts::new(&config);
    let data = |offset: u32| RowRef::Data { region: 0, offset };
    let block_ops = vec![
        RowOp::Copy {
            src: data(0),
            dst: RowRef::T(0),
        },
        RowOp::Copy {
            src: data(1),
            dst: RowRef::T(1),
        },
        RowOp::Copy {
            src: data(0),
            dst: RowRef::T(2),
        },
        RowOp::CopyInv {
            src: data(0),
            dst: RowRef::Dcc(0),
        },
        RowOp::Fill {
            dst: data(3),
            value: true,
        },
        RowOp::Invert {
            dst: RowRef::Dcc(0),
        },
        RowOp::Nop,
        RowOp::MajFused {
            t: [0, 1, 2],
            dst: None,
        },
        RowOp::MajFused {
            t: [0, 1, 2],
            dst: Some(data(4)),
        },
        RowOp::Maj {
            a: BGroupRow::T0,
            b: BGroupRow::Dcc0N,
            c: BGroupRow::C1,
            dst: Some(WriteRef {
                row: RowRef::Dcc(1),
                negated: false,
            }),
        },
        RowOp::Maj {
            a: BGroupRow::T1,
            b: BGroupRow::T2,
            c: BGroupRow::C0,
            dst: Some(WriteRef {
                row: data(5),
                negated: true,
            }),
        },
        RowOp::Copy {
            src: RowRef::T(0),
            dst: data(6),
        },
    ];
    let aggregate = TraceAggregate::from_commands(block_ops.iter().map(|op| match op {
        RowOp::MajFused { dst: None, .. } => costs.tra().clone(),
        RowOp::MajFused { dst: Some(_), .. } | RowOp::Maj { .. } => costs.aap_tra().clone(),
        _ => costs.aap().clone(),
    }));
    let block = RowOpBlock::new(block_ops, 1, aggregate).unwrap();
    let block_len = block.ops().len();
    sa.apply_block(&block, &[0], true).unwrap(); // warm both history modes
    sa.apply_block(&block, &[0], false).unwrap();

    let mut best = usize::MAX;
    for _ in 0..ATTEMPTS {
        sa.drain_trace();
        sa.reserve_trace(block_len * ROUNDS);
        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        for round in 0..ROUNDS {
            sa.apply_block(&block, &[0], round % 2 == 0).unwrap();
        }
        best = best.min(ALLOC_CALLS.load(Ordering::SeqCst) - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "applying a compiled row-op block must not allocate (best attempt saw {best} \
         allocations across {} applications)",
        ROUNDS
    );
    // History was kept exactly for the sampled (with_history) applications.
    assert_eq!(sa.trace().history_len(), block_len * ROUNDS / 2);
}
