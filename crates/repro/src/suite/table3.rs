//! Table 3: the costs of priority updates, in floating-point operations
//! and table lookups per thread, for LFF and CRT across the three thread
//! classes. The counts are deterministic; what an update costs the host
//! is the benchmark's `core.prio_update_ns.*` probes.

use crate::args::Args;
use crate::error::ReproError;
use crate::experiments::CostCase;
use crate::runner::{RunKind, RunRequest};
use crate::suite::ResultSet;
use crate::table::Table;
use locality_core::PolicyKind;

const POLICIES: [PolicyKind; 2] = [PolicyKind::Lff, PolicyKind::Crt];

pub(super) fn requests() -> Vec<RunRequest> {
    POLICIES
        .iter()
        .flat_map(|&policy| {
            CostCase::ALL.map(|case| {
                RunRequest::new(
                    format!("table3:{}/{}", policy.name(), case.name()),
                    RunKind::UpdateCost { policy, case },
                )
            })
        })
        .collect()
}

pub(super) fn emit(args: &Args, results: &ResultSet) -> Result<(), ReproError> {
    let mut t = Table::new(
        "Table 3 — costs of priority updates (per thread, at a context switch)",
        &["policy", "thread class", "fp ops", "table lookups"],
    );
    for policy in POLICIES {
        for case in CostCase::ALL {
            let (flops, lookups) = results.update_cost(&RunKind::UpdateCost { policy, case })?;
            t.row(&[
                policy.name().to_uppercase(),
                case.name().to_string(),
                flops.to_string(),
                lookups.to_string(),
            ])?;
        }
    }
    t.print();
    println!(
        "independent threads cost zero operations by construction (the paper's key property);\n\
         blocking-thread CRT updates need fewer fp ops than LFF (no log lookup), as in the paper."
    );
    t.write_csv(&args.csv_path("table3.csv")?)?;
    Ok(())
}
