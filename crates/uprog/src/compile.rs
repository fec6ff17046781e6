//! Compilation of cached μPrograms into specialized word-level row-op kernels.
//!
//! The interpreted executor ([`crate::execute`]) walks a μProgram one μOp at a time:
//! every command re-resolves its symbolic rows against the [`RowBinding`], re-validates
//! bounds inside the subarray, takes the fused-TRA eligibility test again and records one
//! trace entry. All of that work is the same on every execution of the same program —
//! which, thanks to the [`crate::MicroProgramLibrary`] cache, is exactly how μPrograms
//! are used: generated once, executed across thousands of subarray broadcasts.
//!
//! [`CompiledProgram::compile`] performs that work **once**, lowering each μOp into a
//! pre-resolved [`simdram_dram::RowOp`]:
//!
//! * symbolic rows become region-relative physical references (binding bases are the
//!   only run-time input, applied as a single addition per data row),
//! * constant sources, same-cell copies and negated-wordline paths are specialized into
//!   dedicated `Fill`/`Nop`/`Invert`/`CopyInv` operations,
//! * TRAs take the fused/general decision at compile time, and
//! * the whole program's trace accounting is pre-aggregated into a
//!   [`simdram_dram::TraceAggregate`] (built from the same [`CommandCosts`] table the
//!   subarray registers, so totals stay bit-identical to interpreted execution) and
//!   charged in one shot per run instead of once per command.
//!
//! The result runs via [`CompiledProgram::run`] (or the trace-free
//! [`CompiledProgram::execute_in`]) — one bounds check, then a tight loop of word-level
//! `u64`-slice operations with no per-command dispatch or bookkeeping.

use simdram_dram::{
    rowtag, BGroupRow, CommandCosts, CommandTrace, DramCommand, DramError, RowOp, RowOpBlock,
    RowRef, RowTemplate, SrcRef, Subarray, TraceAggregate, WriteRef,
};
use simdram_logic::Operation;

use crate::error::{Result, UprogError};
use crate::execute::check_binding_regions;
use crate::microop::{MicroOp, MicroRow, RowBinding};
use crate::program::MicroProgram;

/// Region indices of the compiled addressing scheme: each [`MicroRow`] data family maps
/// to one region whose base row comes from the [`RowBinding`] at run time.
const REGION_A: u8 = 0;
const REGION_B: u8 = 1;
const REGION_PRED: u8 = 2;
const REGION_OUT: u8 = 3;
const REGION_TEMP: u8 = 4;
/// Number of regions a compiled program addresses.
const REGIONS: usize = 5;

/// A μProgram lowered once into a binding-independent word-level row-op kernel.
///
/// Compiled programs are cached by the [`crate::MicroProgramLibrary`] (one per
/// `(target, operation, width)`, shared via `Arc`) and run against any subarray and any
/// valid [`RowBinding`]. Execution is bit-identical to the interpreted path: same row
/// contents, same per-kind command counts, and bit-identical latency/energy totals for
/// the local traces both paths return.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    op: Operation,
    width: usize,
    out_width: usize,
    uses_b: bool,
    uses_pred: bool,
    temp_rows: usize,
    block: RowOpBlock,
}

impl CompiledProgram {
    /// Lowers `program` into its compiled form, charging command costs from `costs`.
    ///
    /// `costs` must describe the same [`simdram_dram::DramConfig`] as the subarrays the
    /// program will run in — the machine derives both from one config — so the
    /// pre-aggregated totals match interpreted recording bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`UprogError::WriteToConstantRow`] if a μOp writes a hard-wired control
    /// row and [`UprogError::Dram`] for malformed TRAs (duplicate rows); well-formed
    /// generator output never triggers either.
    pub fn compile(program: &MicroProgram, costs: &CommandCosts) -> Result<Self> {
        let mut commands: Vec<DramCommand> = Vec::with_capacity(program.command_count());
        let mut row_tags: Vec<RowTemplate> = Vec::with_capacity(program.command_count());
        let fates = fate_table(program.ops());
        let mut fuser = Fuser::new(program.command_count());
        for (micro, fate) in program.ops().iter().zip(&fates) {
            micro.validate()?;
            fuser.set_fate(*fate);
            match *micro {
                MicroOp::Aap { src, dst } => {
                    fuser.aap(src, dst)?;
                    commands.push(costs.aap().clone());
                    row_tags.push(row_template(src));
                }
                MicroOp::AapTra { a, b, c, dst } => {
                    fuser.tra(a, b, c, Some(dst))?;
                    commands.push(costs.aap_tra().clone());
                    row_tags.push(RowTemplate::Fixed(rowtag::tra(
                        a as usize, b as usize, c as usize,
                    )));
                }
                MicroOp::ApTra { a, b, c } => {
                    fuser.tra(a, b, c, None)?;
                    commands.push(costs.tra().clone());
                    row_tags.push(RowTemplate::Fixed(rowtag::tra(
                        a as usize, b as usize, c as usize,
                    )));
                }
            }
        }
        let (ops, maj_ordinals, tra_total) = fuser.finish();
        let aggregate = TraceAggregate::from_commands(commands);
        let block = RowOpBlock::new(ops, REGIONS, aggregate)
            .map_err(UprogError::Dram)?
            .with_tra_ordinals(maj_ordinals, tra_total)
            .map_err(UprogError::Dram)?
            .with_row_tags(row_tags)
            .map_err(UprogError::Dram)?;
        Ok(CompiledProgram {
            op: program.operation(),
            width: program.width(),
            out_width: program.operation().output_width(program.width()),
            uses_b: program.operation().uses_second_operand(),
            uses_pred: program.operation().uses_predicate(),
            temp_rows: program.temp_rows(),
            block,
        })
    }

    /// The operation this program implements.
    pub fn operation(&self) -> Operation {
        self.op
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of DRAM commands one run issues (equal to the source μProgram's
    /// `command_count`; the lowered block usually contains *fewer* row ops, since the
    /// copy-propagation pass elides staged B-group traffic — the accounting still
    /// charges every command).
    pub fn command_count(&self) -> usize {
        self.block.aggregate().len()
    }

    /// Number of reserved temporary rows the program needs.
    pub fn temp_rows(&self) -> usize {
        self.temp_rows
    }

    /// The lowered row-op kernel.
    pub fn block(&self) -> &RowOpBlock {
        &self.block
    }

    /// The pre-aggregated trace accounting of one run.
    pub fn aggregate(&self) -> &TraceAggregate {
        self.block.aggregate()
    }

    /// Checks that `binding` places every row this program touches inside a subarray of
    /// `subarray_rows` data rows, with non-overlapping regions — the same validation (and
    /// error messages) as [`crate::validate_binding`] on the source μProgram.
    ///
    /// # Errors
    ///
    /// Returns [`UprogError::InvalidBinding`] describing the first violation found.
    pub fn validate_binding(&self, binding: &RowBinding, subarray_rows: usize) -> Result<()> {
        check_binding_regions(
            self.width,
            self.out_width,
            self.temp_rows,
            self.uses_b,
            self.uses_pred,
            binding,
            subarray_rows,
        )
    }

    /// Runs the compiled kernel in `subarray` under `binding` without building a local
    /// trace — the allocation-free fast path (the subarray's cumulative aggregates are
    /// still charged; `with_history` additionally retains its per-command history).
    ///
    /// # Errors
    ///
    /// Returns [`UprogError::InvalidBinding`] if the binding does not fit the subarray.
    pub fn execute_in(
        &self,
        subarray: &mut Subarray,
        binding: &RowBinding,
        with_history: bool,
    ) -> Result<()> {
        self.validate_binding(binding, subarray.rows())?;
        subarray.apply_block(&self.block, &region_bases(binding), with_history)?;
        Ok(())
    }

    /// Runs the compiled kernel and returns a self-contained local [`CommandTrace`] built
    /// from the pre-computed aggregate — the compiled counterpart of
    /// [`crate::execute`], with bit-identical trace totals.
    ///
    /// # Errors
    ///
    /// Returns [`UprogError::InvalidBinding`] if the binding does not fit the subarray.
    pub fn run(
        &self,
        subarray: &mut Subarray,
        binding: &RowBinding,
        with_history: bool,
    ) -> Result<CommandTrace> {
        self.execute_in(subarray, binding, with_history)?;
        if with_history {
            let rows = self.block.resolve_row_tags(&region_bases(binding));
            Ok(self.block.aggregate().to_trace_with_rows(&rows))
        } else {
            Ok(self.block.aggregate().to_trace(false))
        }
    }

    /// Like [`CompiledProgram::run`], rebuilding the caller's `out` trace in place so a
    /// hot loop can reuse one local-trace allocation across runs.
    ///
    /// # Errors
    ///
    /// Returns [`UprogError::InvalidBinding`] if the binding does not fit the subarray.
    pub fn run_into(
        &self,
        subarray: &mut Subarray,
        binding: &RowBinding,
        with_history: bool,
        out: &mut CommandTrace,
    ) -> Result<()> {
        self.execute_in(subarray, binding, with_history)?;
        if with_history {
            let rows = self.block.resolve_row_tags(&region_bases(binding));
            self.block.aggregate().write_trace_with_rows(out, &rows);
        } else {
            self.block.aggregate().write_trace(out, false);
        }
        Ok(())
    }
}

/// The region base table a binding supplies, indexed by the `REGION_*` scheme.
fn region_bases(binding: &RowBinding) -> [usize; REGIONS] {
    [
        binding.a_base,
        binding.b_base,
        binding.pred_row,
        binding.out_base,
        binding.temp_base,
    ]
}

/// The row-address template of an `AAP`'s first activation: the tag the interpreter
/// records for the resolved source row ([`MicroRow::resolve`] followed by the
/// subarray's address tagging).
fn row_template(row: MicroRow) -> RowTemplate {
    let data = |region: u8, offset: usize| RowTemplate::Data {
        region,
        offset: u32::try_from(offset).expect("row offsets fit in 32 bits"),
    };
    match row {
        MicroRow::InputA(i) => data(REGION_A, i),
        MicroRow::InputB(i) => data(REGION_B, i),
        MicroRow::Pred => data(REGION_PRED, 0),
        MicroRow::Output(i) => data(REGION_OUT, i),
        MicroRow::Temp(i) => data(REGION_TEMP, i),
        MicroRow::Zero => RowTemplate::Fixed(rowtag::bgroup(BGroupRow::C0 as usize)),
        MicroRow::One => RowTemplate::Fixed(rowtag::bgroup(BGroupRow::C1 as usize)),
        MicroRow::BGroup(b) => RowTemplate::Fixed(rowtag::bgroup(b as usize)),
    }
}

/// A lowered row operand: physical storage plus wordline polarity, or a hard-wired
/// constant.
#[derive(Clone, Copy)]
enum Lowered {
    Row { row: RowRef, negated: bool },
    Const(bool),
}

fn lower_row(row: MicroRow) -> Lowered {
    let data = |region: u8, offset: usize| Lowered::Row {
        row: RowRef::Data {
            region,
            offset: u32::try_from(offset).expect("row offsets fit in 32 bits"),
        },
        negated: false,
    };
    match row {
        MicroRow::InputA(i) => data(REGION_A, i),
        MicroRow::InputB(i) => data(REGION_B, i),
        MicroRow::Pred => data(REGION_PRED, 0),
        MicroRow::Output(i) => data(REGION_OUT, i),
        MicroRow::Temp(i) => data(REGION_TEMP, i),
        MicroRow::Zero => Lowered::Const(false),
        MicroRow::One => Lowered::Const(true),
        MicroRow::BGroup(b) => match b {
            BGroupRow::T0 => Lowered::Row {
                row: RowRef::T(0),
                negated: false,
            },
            BGroupRow::T1 => Lowered::Row {
                row: RowRef::T(1),
                negated: false,
            },
            BGroupRow::T2 => Lowered::Row {
                row: RowRef::T(2),
                negated: false,
            },
            BGroupRow::T3 => Lowered::Row {
                row: RowRef::T(3),
                negated: false,
            },
            BGroupRow::Dcc0 | BGroupRow::Dcc0N => Lowered::Row {
                row: RowRef::Dcc(0),
                negated: b.is_negated_wordline(),
            },
            BGroupRow::Dcc1 | BGroupRow::Dcc1N => Lowered::Row {
                row: RowRef::Dcc(1),
                negated: b.is_negated_wordline(),
            },
            BGroupRow::C0 => Lowered::Const(false),
            BGroupRow::C1 => Lowered::Const(true),
        },
    }
}

/// Number of virtualized B-group registers: `T0`–`T3` are 0–3, `DCC0` is 4, `DCC1` is 5.
const REGS: usize = 6;

/// What a virtualized B-group register holds during the copy-propagation pass.
#[derive(Clone, Copy, PartialEq)]
enum Val {
    /// The register's physical storage is up to date.
    Materialized,
    /// The register's cell value equals `SrcRef` — the staging copy was elided, and the
    /// source row is guaranteed untouched since capture (every emitted write flushes
    /// the registers deferred on its target first).
    Deferred(SrcRef),
}

/// The copy-propagation pass: lowers μOps to [`RowOp`]s while treating the six writable
/// B-group cells as virtual registers.
///
/// Copies *into* the B-group assign a register symbolically and emit nothing; TRA
/// operands resolve through those assignments, so each majority reads its true sources
/// (data rows, earlier results, constants) directly via [`RowOp::MajDirect`] — the
/// "fused AAP-copy/TRA-majority runs" of the compiled mode. The hardware's B-group
/// restorations are deferred until the value is observable: before any write to a row a
/// deferred register captured, and at the end of the block, so the final subarray state
/// is bit-identical to interpreted execution.
struct Fuser {
    vals: [Val; REGS],
    /// Per-register liveness at the current μOp (from [`fate_table`]): `true` means the
    /// register's value reaches a later read (or the end of the block, where the
    /// B-group is observable); `false` means it is overwritten first, so a restoration
    /// owed to it can be dropped instead of emitted.
    fate: [bool; REGS],
    ops: Vec<RowOp>,
    /// TRA μOps lowered so far, whether or not they emitted a majority op.
    tra_seen: u32,
    /// For each emitted majority op (in `ops` order), the ordinal of the source-program
    /// TRA it lowers. Elided TRAs (dead bare `AP`s) leave gaps, which is what lets the
    /// fault layer key injection on source-program TRA ordinals identically in both
    /// execution modes (see [`RowOpBlock::with_tra_ordinals`]).
    maj_ordinals: Vec<u32>,
}

/// The virtual register an `AAP` operand addresses, if it is B-group storage.
fn reg_of_micro(row: MicroRow) -> Option<usize> {
    match lower_row(row) {
        Lowered::Row { row, .. } => reg_of_ref(row),
        Lowered::Const(_) => None,
    }
}

/// Backward liveness over the μOp sequence: entry `i` gives, for each virtual register,
/// whether its value *as of μOp `i`'s write phase* is ever read again (every μOp reads
/// its sources before driving its destinations, and a TRA reads its three operands
/// before the charge restoration overwrites them). The end of the block reads every
/// register — the B-group cells are architecturally observable state.
fn fate_table(ops: &[MicroOp]) -> Vec<[bool; REGS]> {
    let mut table = vec![[true; REGS]; ops.len()];
    // `next[reg]` = is `reg`'s value live entering μOp i+1. The block end reads all.
    let mut next = [true; REGS];
    for (i, op) in ops.iter().enumerate().rev() {
        let (reads, writes): ([Option<usize>; 3], [Option<usize>; 4]) = match *op {
            MicroOp::Aap { src, dst } => (
                [reg_of_micro(src), None, None],
                [reg_of_micro(dst), None, None, None],
            ),
            MicroOp::AapTra { a, b, c, dst } => {
                let regs = [a, b, c].map(|r| reg_of(r).map(|(reg, _)| reg));
                (regs, [regs[0], regs[1], regs[2], reg_of_micro(dst)])
            }
            MicroOp::ApTra { a, b, c } => {
                let regs = [a, b, c].map(|r| reg_of(r).map(|(reg, _)| reg));
                (regs, [regs[0], regs[1], regs[2], None])
            }
        };
        // The fate at op i's write phase: its own writes kill, later ops decide the rest.
        table[i] = next;
        for reg in writes.into_iter().flatten() {
            table[i][reg] = false;
        }
        // Entering op i, its reads (which precede its writes) make their sources live.
        next = table[i];
        for reg in reads.into_iter().flatten() {
            next[reg] = true;
        }
    }
    table
}

/// The virtual register and wordline polarity of a B-group row, or `None` for the
/// hard-wired control rows.
fn reg_of(row: BGroupRow) -> Option<(usize, bool)> {
    match row {
        BGroupRow::T0 => Some((0, false)),
        BGroupRow::T1 => Some((1, false)),
        BGroupRow::T2 => Some((2, false)),
        BGroupRow::T3 => Some((3, false)),
        BGroupRow::Dcc0 => Some((4, false)),
        BGroupRow::Dcc0N => Some((4, true)),
        BGroupRow::Dcc1 => Some((5, false)),
        BGroupRow::Dcc1N => Some((5, true)),
        BGroupRow::C0 | BGroupRow::C1 => None,
    }
}

/// The physical storage behind a virtual register.
fn storage_of(reg: usize) -> RowRef {
    match reg {
        0..=3 => RowRef::T(reg as u8),
        4 => RowRef::Dcc(0),
        _ => RowRef::Dcc(1),
    }
}

/// The virtual register a lowered row reference addresses, if it is B-group storage.
fn reg_of_ref(row: RowRef) -> Option<usize> {
    match row {
        RowRef::T(i) => Some(i as usize),
        RowRef::Dcc(i) => Some(4 + i as usize),
        RowRef::Data { .. } => None,
    }
}

/// Applies a wordline polarity on top of a resolved source.
fn apply_neg(src: SrcRef, negated: bool) -> SrcRef {
    match src {
        SrcRef::Row { row, negated: n } => SrcRef::Row {
            row,
            negated: n != negated,
        },
        SrcRef::Const(b) => SrcRef::Const(b != negated),
    }
}

impl Fuser {
    fn new(command_count: usize) -> Self {
        Fuser {
            vals: [Val::Materialized; REGS],
            fate: [true; REGS],
            ops: Vec::with_capacity(command_count),
            tra_seen: 0,
            maj_ordinals: Vec::new(),
        }
    }

    /// Installs the liveness row of the μOp about to be lowered (see [`fate_table`]).
    fn set_fate(&mut self, fate: [bool; REGS]) {
        self.fate = fate;
    }

    /// Resolves a read of virtual register `reg` through polarity `negated`.
    fn read_reg(&self, reg: usize, negated: bool) -> SrcRef {
        match self.vals[reg] {
            Val::Materialized => SrcRef::Row {
                row: storage_of(reg),
                negated,
            },
            Val::Deferred(src) => apply_neg(src, negated),
        }
    }

    /// Resolves an `AAP` source row to its current value.
    fn read(&self, row: MicroRow) -> SrcRef {
        match lower_row(row) {
            Lowered::Const(v) => SrcRef::Const(v),
            Lowered::Row { row, negated } => match reg_of_ref(row) {
                Some(reg) => self.read_reg(reg, negated),
                None => SrcRef::Row { row, negated },
            },
        }
    }

    /// Resolves a TRA operand to its current value.
    fn read_bgroup(&self, row: BGroupRow) -> SrcRef {
        match reg_of(row) {
            Some((reg, negated)) => self.read_reg(reg, negated),
            None => SrcRef::Const(row == BGroupRow::C1),
        }
    }

    /// Emits the specialized data movement realizing `src → dst` (same-cell copies
    /// collapse to an in-place complement or nothing, exactly like the interpreted
    /// drive). The caller has already flushed registers deferred on `dst`.
    fn emit_move(&mut self, src: SrcRef, dst: RowRef) {
        let op = match src {
            SrcRef::Const(v) => RowOp::Fill { dst, value: v },
            SrcRef::Row { row, negated } => {
                if row == dst {
                    if negated {
                        RowOp::Invert { dst }
                    } else {
                        return; // the cell already holds the value
                    }
                } else if negated {
                    RowOp::CopyInv { src: row, dst }
                } else {
                    RowOp::Copy { src: row, dst }
                }
            }
        };
        self.ops.push(op);
    }

    /// Materializes every register whose deferred value was captured from `target`,
    /// called immediately before an emitted write to `target` — the captured content is
    /// still in place, so the restoration each register owes can be emitted now.
    fn flush_refs_to(&mut self, target: RowRef) {
        for reg in 0..REGS {
            if let Val::Deferred(SrcRef::Row { row, .. }) = self.vals[reg] {
                if row == target {
                    self.flush(reg);
                }
            }
        }
    }

    /// Materializes one deferred register into its physical storage — unless its value
    /// is dead (overwritten before the next read), in which case the restoration it
    /// owes is dropped outright: the stale cell is unobservable by construction.
    fn flush(&mut self, reg: usize) {
        let Val::Deferred(src) = self.vals[reg] else {
            return;
        };
        // Mark materialized first so the cascade below terminates; registers deferred
        // on *our* storage capture its current content before we overwrite it. (Two
        // registers can never defer on each other's storage — creating such an edge
        // requires the referenced register to be materialized at capture time — so the
        // cascade never clobbers `src` before the move below is emitted.)
        self.vals[reg] = Val::Materialized;
        if !self.fate[reg] {
            return;
        }
        let dst = storage_of(reg);
        self.flush_refs_to(dst);
        self.emit_move(src, dst);
    }

    /// Lowers one `AAP src, dst`.
    fn aap(&mut self, src: MicroRow, dst: MicroRow) -> Result<()> {
        let value = self.read(src);
        match lower_row(dst) {
            Lowered::Const(_) => Err(UprogError::WriteToConstantRow),
            Lowered::Row { row, negated } => {
                let cell = apply_neg(value, negated);
                match reg_of_ref(row) {
                    Some(reg) => {
                        // A staging copy into the B-group: assign the register
                        // symbolically, emit nothing.
                        self.vals[reg] = match cell {
                            SrcRef::Row {
                                row: r,
                                negated: false,
                            } if r == storage_of(reg) => Val::Materialized,
                            other => Val::Deferred(other),
                        };
                        Ok(())
                    }
                    None => {
                        self.flush_refs_to(row);
                        self.emit_move(cell, row);
                        Ok(())
                    }
                }
            }
        }
    }

    /// Lowers one TRA (with `dst` for the `AAP` variant).
    fn tra(
        &mut self,
        a: BGroupRow,
        b: BGroupRow,
        c: BGroupRow,
        dst: Option<MicroRow>,
    ) -> Result<()> {
        if a == b || b == c || a == c {
            return Err(UprogError::Dram(DramError::DuplicateTraRow));
        }
        let ordinal = self.tra_seen;
        self.tra_seen += 1;
        let srcs = [
            self.read_bgroup(a),
            self.read_bgroup(b),
            self.read_bgroup(c),
        ];
        // The registers the TRA's charge restoration writes, with the polarity each
        // wordline drives, in restoration order (last write wins, as in the
        // interpreter).
        let mut restored = [(0usize, false); 3];
        let mut restored_len = 0;
        for row in [a, b, c] {
            if let Some(rp) = reg_of(row) {
                restored[restored_len] = rp;
                restored_len += 1;
            }
        }
        let restored = &restored[..restored_len];

        let lowered_dst = match dst {
            None => None,
            Some(d) => match lower_row(d) {
                Lowered::Const(_) => return Err(UprogError::WriteToConstantRow),
                Lowered::Row { row, negated } => Some((row, negated)),
            },
        };
        match lowered_dst {
            // Data-row destination: the majority is materialized there, and the
            // B-group restorations defer to it.
            Some((row, negated)) if reg_of_ref(row).is_none() => {
                self.flush_refs_to(row);
                self.maj_ordinals.push(ordinal);
                self.ops.push(RowOp::MajDirect {
                    srcs,
                    dst: Some(WriteRef { row, negated }),
                });
                // cell(row) = maj ^ negated; a register restored through polarity
                // `pol` holds maj ^ pol = cell(row) ^ negated ^ pol.
                for &(reg, pol) in restored {
                    self.vals[reg] = Val::Deferred(SrcRef::Row {
                        row,
                        negated: negated != pol,
                    });
                }
            }
            // B-group destination: materialize into its storage; other restored
            // registers defer to it.
            Some((row, negated)) => {
                let dreg = reg_of_ref(row).expect("the data case was matched above");
                self.flush_refs_to(row);
                self.maj_ordinals.push(ordinal);
                self.ops.push(RowOp::MajDirect {
                    srcs,
                    dst: Some(WriteRef { row, negated }),
                });
                self.vals[dreg] = Val::Materialized;
                for &(reg, pol) in restored {
                    if reg != dreg {
                        self.vals[reg] = Val::Deferred(SrcRef::Row {
                            row,
                            negated: negated != pol,
                        });
                    }
                }
            }
            // Bare `AP` TRA: materialize into a *live* restored register's storage and
            // defer the rest to it. When every restored register is dead — the next
            // event for each is a write — the majority itself is unobservable and the
            // TRA lowers to nothing (a TRA over control rows only always does).
            None => {
                if let Some(i0) = restored.iter().position(|&(reg, _)| self.fate[reg]) {
                    let (reg0, pol0) = restored[i0];
                    let row = storage_of(reg0);
                    self.flush_refs_to(row);
                    self.maj_ordinals.push(ordinal);
                    self.ops.push(RowOp::MajDirect {
                        srcs,
                        dst: Some(WriteRef { row, negated: pol0 }),
                    });
                    // Earlier restorations are all dead (their registers' fates are
                    // write-next); assignments stay in restoration order so a register
                    // named through both wordlines keeps its last-written polarity.
                    for &(reg, _) in &restored[..i0] {
                        self.vals[reg] = Val::Materialized;
                    }
                    self.vals[reg0] = Val::Materialized;
                    for &(reg, pol) in &restored[i0 + 1..] {
                        self.vals[reg] = Val::Deferred(SrcRef::Row {
                            row,
                            negated: pol0 != pol,
                        });
                    }
                } else {
                    for &(reg, _) in restored {
                        // Dead restoration: the stale cell is overwritten before any
                        // read, so dropping the deferred value outright is sound.
                        self.vals[reg] = Val::Materialized;
                    }
                }
            }
        }
        Ok(())
    }

    /// Ends the block: emits the restorations still owed so every B-group cell holds
    /// exactly what interpreted execution leaves in it. Returns the lowered ops, the
    /// source-program TRA ordinal of each emitted majority op, and the total TRA count
    /// of the source program.
    fn finish(mut self) -> (Vec<RowOp>, Vec<u32>, u32) {
        // The end of the block observes every cell, whatever the last μOp's fate said.
        self.fate = [true; REGS];
        for reg in 0..REGS {
            self.flush(reg);
        }
        (self.ops, self.maj_ordinals, self.tra_seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::CodegenOptions;
    use crate::execute;
    use crate::library::{build_program, Target};
    use simdram_dram::{DramConfig, RowAddr};

    fn costs() -> CommandCosts {
        CommandCosts::new(&DramConfig::tiny())
    }

    fn binding() -> RowBinding {
        RowBinding {
            a_base: 0,
            b_base: 8,
            pred_row: 16,
            out_base: 17,
            temp_base: 30,
        }
    }

    #[test]
    fn compiled_add_matches_interpreted_execution_bit_for_bit() {
        let program = build_program(
            Target::Simdram,
            Operation::Add,
            8,
            CodegenOptions::optimized(),
        );
        let compiled = CompiledProgram::compile(&program, &costs()).unwrap();
        assert_eq!(compiled.command_count(), program.command_count());

        let config = DramConfig::tiny();
        let mut interp = Subarray::new(&config);
        let mut comp = Subarray::new(&config);
        // Vertical layout: bit i of each operand in row base+i, one lane per column.
        for (base, value) in [(0usize, 0xB7u64), (8, 0x5Du64)] {
            for bit in 0..8 {
                let row = simdram_dram::BitRow::from_fn(config.columns_per_row, |lane| {
                    ((value >> bit) & 1 == 1 && lane % 3 != 0) || lane % 7 == 0
                });
                interp.write_row(base + bit, &row);
                comp.write_row(base + bit, &row);
            }
        }

        let local_interp = execute::execute(&program, &mut interp, &binding()).unwrap();
        let local_comp = compiled.run(&mut comp, &binding(), true).unwrap();

        for row in 0..interp.rows() {
            assert_eq!(
                interp.row(RowAddr::Data(row)).unwrap(),
                comp.row(RowAddr::Data(row)).unwrap(),
                "row {row} diverged"
            );
        }
        for b in BGroupRow::ALL {
            assert_eq!(
                interp.peek(RowAddr::BGroup(b)).unwrap(),
                comp.peek(RowAddr::BGroup(b)).unwrap(),
                "{b:?} diverged"
            );
        }
        // Local traces are fully equal, including f64 bit patterns of the totals.
        assert_eq!(local_comp, local_interp);
        assert_eq!(
            local_comp.total_latency_ns().to_bits(),
            local_interp.total_latency_ns().to_bits()
        );
        assert_eq!(
            local_comp.total_energy_nj().to_bits(),
            local_interp.total_energy_nj().to_bits()
        );
        // Cumulative subarray aggregates agree on count structure.
        assert_eq!(comp.trace().len(), interp.trace().len());
        assert_eq!(
            comp.trace().kind_counts().collect::<Vec<_>>(),
            interp.trace().kind_counts().collect::<Vec<_>>()
        );
    }

    #[test]
    fn compiled_matches_interpreted_on_partly_materialized_subarrays() {
        // Only the even bits of operand A are ever written: odd A bits, all of B and
        // every output/temp row start unwritten, so sources resolve to the shared zero
        // row and destinations materialize on first write in both modes.
        let config = DramConfig::tiny();
        for op in [
            Operation::Add,
            Operation::Mul,
            Operation::Greater,
            Operation::Abs,
        ] {
            let program = build_program(Target::Simdram, op, 8, CodegenOptions::optimized());
            let compiled = CompiledProgram::compile(&program, &costs()).unwrap();
            let mut interp = Subarray::new(&config);
            let mut comp = Subarray::new(&config);
            for bit in (0..8).step_by(2) {
                let row = simdram_dram::BitRow::from_fn(config.columns_per_row, |lane| {
                    (lane >> bit) & 1 == 1
                });
                interp.write_row(bit, &row);
                comp.write_row(bit, &row);
            }
            execute::execute(&program, &mut interp, &binding()).unwrap();
            compiled.run(&mut comp, &binding(), false).unwrap();
            for row in 0..interp.rows() {
                assert_eq!(
                    interp.row(RowAddr::Data(row)).unwrap(),
                    comp.row(RowAddr::Data(row)).unwrap(),
                    "{op:?}: row {row} diverged"
                );
            }
        }
    }

    #[test]
    fn trace_free_run_keeps_aggregates_but_no_history() {
        let program = build_program(
            Target::Simdram,
            Operation::Abs,
            8,
            CodegenOptions::optimized(),
        );
        let compiled = CompiledProgram::compile(&program, &costs()).unwrap();
        let mut sa = Subarray::new(&DramConfig::tiny());
        compiled.execute_in(&mut sa, &binding(), false).unwrap();
        assert_eq!(sa.trace().len(), program.command_count());
        assert_eq!(sa.trace().history_len(), 0);
        let mut out = CommandTrace::new();
        compiled
            .run_into(&mut sa, &binding(), false, &mut out)
            .unwrap();
        assert_eq!(out.len(), program.command_count());
        assert_eq!(out.history_len(), 0);
    }

    #[test]
    fn invalid_bindings_are_rejected_like_the_interpreter() {
        let program = build_program(
            Target::Simdram,
            Operation::Add,
            8,
            CodegenOptions::optimized(),
        );
        let compiled = CompiledProgram::compile(&program, &costs()).unwrap();
        let mut sa = Subarray::new(&DramConfig::tiny());
        let bad = RowBinding {
            out_base: 4, // overlaps operand A
            ..binding()
        };
        let interp_err = execute::validate_binding(&program, &bad, sa.rows()).unwrap_err();
        let comp_err = compiled.run(&mut sa, &bad, false).unwrap_err();
        assert_eq!(comp_err, interp_err);
    }

    #[test]
    fn fuser_specializes_constant_and_negated_copies() {
        // Constants written to data rows lower to fills; a negated wordline on the
        // destination complements the stored value.
        let mut fuser = Fuser::new(4);
        fuser.aap(MicroRow::Zero, MicroRow::Temp(2)).unwrap();
        // Reading a negated wordline into a data row complements the copy.
        fuser
            .aap(MicroRow::BGroup(BGroupRow::Dcc1N), MicroRow::Output(0))
            .unwrap();
        assert_eq!(
            fuser.finish().0,
            vec![
                RowOp::Fill {
                    dst: RowRef::Data {
                        region: REGION_TEMP,
                        offset: 2
                    },
                    value: false,
                },
                RowOp::CopyInv {
                    src: RowRef::Dcc(1),
                    dst: RowRef::Data {
                        region: REGION_OUT,
                        offset: 0
                    },
                },
            ]
        );
        let mut fuser = Fuser::new(1);
        assert_eq!(
            fuser.aap(MicroRow::InputA(0), MicroRow::BGroup(BGroupRow::C0)),
            Err(UprogError::WriteToConstantRow)
        );
    }

    #[test]
    fn fuser_elides_bgroup_staging_and_defers_restorations() {
        // The canonical Ambit MAJ staging sequence: three copies into T rows, a TRA,
        // and the result copied out. The pass elides all three staging copies and the
        // copy-out reads the majority result straight from the data destination.
        let mut fuser = Fuser::new(5);
        fuser
            .aap(MicroRow::InputA(0), MicroRow::BGroup(BGroupRow::T0))
            .unwrap();
        fuser
            .aap(MicroRow::InputB(0), MicroRow::BGroup(BGroupRow::T1))
            .unwrap();
        fuser
            .aap(MicroRow::One, MicroRow::BGroup(BGroupRow::T2))
            .unwrap();
        fuser
            .tra(
                BGroupRow::T0,
                BGroupRow::T1,
                BGroupRow::T2,
                Some(MicroRow::Temp(0)),
            )
            .unwrap();
        fuser
            .aap(MicroRow::BGroup(BGroupRow::T0), MicroRow::Output(0))
            .unwrap();
        let a = RowRef::Data {
            region: REGION_A,
            offset: 0,
        };
        let b = RowRef::Data {
            region: REGION_B,
            offset: 0,
        };
        let tmp = RowRef::Data {
            region: REGION_TEMP,
            offset: 0,
        };
        let out = RowRef::Data {
            region: REGION_OUT,
            offset: 0,
        };
        let (ops, maj_ordinals, tra_total) = fuser.finish();
        // One majority over the true sources, the copy-out from the deferred
        // restoration, then three end-of-block restorations into T0..T2.
        assert_eq!(ops.len(), 5);
        assert_eq!(maj_ordinals, vec![0]);
        assert_eq!(tra_total, 1);
        assert_eq!(
            ops[0],
            RowOp::MajDirect {
                srcs: [
                    SrcRef::Row {
                        row: a,
                        negated: false
                    },
                    SrcRef::Row {
                        row: b,
                        negated: false
                    },
                    SrcRef::Const(true),
                ],
                dst: Some(WriteRef {
                    row: tmp,
                    negated: false
                }),
            }
        );
        assert_eq!(ops[1], RowOp::Copy { src: tmp, dst: out });
        for (op, t) in ops[2..].iter().zip(0u8..) {
            assert_eq!(
                *op,
                RowOp::Copy {
                    src: tmp,
                    dst: RowRef::T(t)
                }
            );
        }
    }

    #[test]
    fn fuser_rejects_duplicate_tra_rows_and_constant_destinations() {
        let mut fuser = Fuser::new(1);
        assert_eq!(
            fuser.tra(BGroupRow::T0, BGroupRow::T0, BGroupRow::T1, None),
            Err(UprogError::Dram(DramError::DuplicateTraRow))
        );
        assert_eq!(
            fuser.tra(
                BGroupRow::T0,
                BGroupRow::T1,
                BGroupRow::T2,
                Some(MicroRow::BGroup(BGroupRow::C1)),
            ),
            Err(UprogError::WriteToConstantRow)
        );
    }
}
