//! # simdram-dram — the processing-using-DRAM substrate
//!
//! This crate implements the DRAM substrate that the SIMDRAM framework (ASPLOS 2021)
//! computes on. It is a *functional + analytical* simulator:
//!
//! * **Functional**: every DRAM row is a real bit vector ([`BitRow`]), and the Ambit-style
//!   in-DRAM primitives — triple-row activation (bitwise majority), dual-contact cells
//!   (bitwise NOT) and RowClone copies (`AAP`/`AP` command pairs) — actually transform the
//!   stored bits, so computations executed on the model can be checked for correctness.
//! * **Analytical**: every issued command is traced and charged its DDR timing
//!   ([`DramTiming`]) and energy ([`EnergyModel`]) so that throughput and energy-efficiency
//!   experiments can be reproduced from command counts, exactly like the paper derives them.
//!
//! The crate also contains the process-variation reliability model
//! ([`variation`]) used to reproduce the paper's reliability study.
//!
//! ## Quick example
//!
//! ```
//! use simdram_dram::{DramConfig, Subarray, BGroupRow, RowAddr};
//!
//! let cfg = DramConfig::default();
//! let mut sa = Subarray::new(&cfg);
//! // Fill three data rows with patterns.
//! sa.write_row(0, &simdram_dram::BitRow::splat_word(0b1010, cfg.columns_per_row));
//! sa.write_row(1, &simdram_dram::BitRow::splat_word(0b1100, cfg.columns_per_row));
//! sa.write_row(2, &simdram_dram::BitRow::splat_word(0b1111, cfg.columns_per_row));
//! // MAJ(r0, r1, r2) using the Ambit command sequence.
//! sa.aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::T0)).unwrap();
//! sa.aap(RowAddr::Data(1), RowAddr::BGroup(BGroupRow::T1)).unwrap();
//! sa.aap(RowAddr::Data(2), RowAddr::BGroup(BGroupRow::T2)).unwrap();
//! sa.ap_tra(BGroupRow::T0, BGroupRow::T1, BGroupRow::T2).unwrap();
//! sa.aap(RowAddr::BGroup(BGroupRow::T0), RowAddr::Data(3)).unwrap();
//! assert_eq!(sa.read_row(3).word(0) & 0xF, 0b1110);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
pub mod bankstate;
mod bitrow;
mod command;
mod config;
mod device;
pub mod envopt;
mod error;
mod fault;
mod rowclone;
mod rowops;
mod subarray;

pub mod energy;
pub mod stats;
pub mod timing;
pub mod variation;

pub use bank::Bank;
pub use bankstate::{BankStateModel, BankStateReplay, BankTiming, RowBufferOutcome};
pub use bitrow::BitRow;
pub use command::{
    rowtag, CommandCosts, CommandKind, CommandTrace, DramCommand, TraceAggregate, TraceSlot,
};
pub use config::{DramConfig, DramConfigBuilder};
pub use device::DramDevice;
pub use energy::EnergyModel;
pub use envopt::EnvOverrideError;
pub use error::{DramError, Result};
pub use fault::{FaultModel, FaultState};
pub use rowclone::{CopyMechanism, InterSubarrayCopy};
pub use rowops::{RowOp, RowOpBlock, RowRef, RowTemplate, SrcRef, WriteRef};
pub use subarray::{BGroupRow, DataRowSnapshot, RowAddr, Subarray};
pub use timing::DramTiming;
