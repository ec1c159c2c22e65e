//! Prints every table and figure series of the paper's evaluation, in paper
//! order, over all 30 workloads: Table 2, Figures 2 and 12–19, and the
//! Section 7 headline summary, with the paper-reported geomeans next to the
//! measured ones.
//!
//! The output is deterministic (no timings), so two runs can be diffed.
//!
//! Run with `cargo run --release --example paper_figures`.

use plaid::experiments::{self, ExperimentScope};
use plaid::report::geomean;

fn main() {
    let scope = ExperimentScope::FULL;
    println!("{}", experiments::table2_characteristics(scope));
    println!("{}", experiments::power_breakdown());

    // Figures 12, 14, 15 and the headline summary share one comparison run.
    let comparison = experiments::architecture_comparison(scope);
    println!("{}", comparison.render_performance());
    println!(
        "geomean: plaid/spatio-temporal = {:.2}x cycles, spatial/plaid = {:.2}x cycles (paper: ~1.0x and ~1.4x)\n",
        comparison.plaid_vs_st_cycles(),
        comparison.spatial_vs_plaid_cycles()
    );
    println!("{}", experiments::area_breakdown());
    println!("{}", comparison.render_energy());
    println!(
        "geomean energy: plaid/spatio-temporal = {:.2}, plaid/spatial = {:.2} (paper: 0.58 and 0.72)\n",
        comparison.plaid_vs_st_energy(),
        comparison.plaid_vs_spatial_energy()
    );
    println!("{}", comparison.render_perf_per_area());
    println!("{}", experiments::dnn_comparison().1);
    println!("{}", experiments::scalability(scope).1);

    let (rows, text) = experiments::mapper_comparison(scope);
    println!("{text}");
    let slowdown = |cycles: fn(&experiments::MapperRow) -> u64| {
        geomean(
            rows.iter()
                .map(|r| cycles(r) as f64 / r.plaid_cycles as f64),
        )
    };
    println!(
        "geomean slowdown vs Plaid mapper: PathFinder {:.2}x, SA {:.2}x (paper: 1.25x and 1.28x)\n",
        slowdown(|r| r.pathfinder_cycles),
        slowdown(|r| r.sa_cycles)
    );
    println!("{}", experiments::domain_specialization().1);
    println!("{}", experiments::headline_summary(&comparison));
}
