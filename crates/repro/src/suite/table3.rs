//! Table 3: the costs of priority updates, in floating-point operations
//! and table lookups per thread, for LFF and CRT across the three thread
//! classes. The counts are deterministic and a cell is a handful of
//! arithmetic on one table, so the rows are computed where they are
//! printed, not sent through the runner; what an update costs the host is
//! the benchmark's `core.prio_update_ns.*` probes.

use crate::args::Args;
use crate::error::ReproError;
use crate::experiments::{update_cost_cell, CostCase};
use crate::table::Table;
use locality_core::PolicyKind;

pub(super) fn emit(args: &Args) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Table 3 — costs of priority updates (per thread, at a context switch)",
        &["policy", "thread class", "fp ops", "table lookups"],
    );
    for policy in [PolicyKind::Lff, PolicyKind::Crt] {
        for case in CostCase::ALL {
            let (flops, lookups) = update_cost_cell(policy, case);
            t.row(&[
                policy.name().to_uppercase(),
                case.name().to_string(),
                flops.to_string(),
                lookups.to_string(),
            ])?;
        }
    }
    t.print();
    say!(
        "independent threads cost zero operations by construction (the paper's key property);\n\
         blocking-thread CRT updates need fewer fp ops than LFF (no log lookup), as in the paper."
    );
    t.write_csv(&args.csv_path("table3.csv")?)?;
    Ok(())
}
