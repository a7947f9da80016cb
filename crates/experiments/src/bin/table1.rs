//! Regenerates **Table I** of the paper: Rings, Core, Delay, Dev, Bound and
//! CPU seconds for the degree-6 and degree-2 polar-grid algorithms over
//! uniform unit-disk instances.
//!
//! ```text
//! cargo run --release -p omt-experiments --bin table1            # full paper sweep
//! cargo run --release -p omt-experiments --bin table1 -- --quick # up to 50k nodes
//! cargo run --release -p omt-experiments --bin table1 -- --trials 200 --out results/
//! ```

use omt_experiments::cli::ExpArgs;
use omt_experiments::report::{print_metrics, table1_csv, table1_markdown, write_result};
use omt_experiments::runner::run_table1_row;

fn main() {
    let args = ExpArgs::from_env();
    let mut rows = Vec::new();
    eprintln!(
        "# Table I — {} sizes, seed {}",
        args.sizes().len(),
        args.seed()
    );
    for n in args.sizes() {
        let trials = args.trials_for(n);
        eprintln!("running n = {n} ({trials} trials)...");
        let row = run_table1_row(args.seed(), n, trials);
        println!(
            "n={:>9}  rings={:>5.2}  deg6: core={:.2} delay={:.3} dev={:.2} bound={:.2} cpu={:.4}s \
             | deg2: core={:.2} delay={:.3} dev={:.2} bound={:.2} cpu={:.4}s",
            row.n,
            row.rings,
            row.deg6.core,
            row.deg6.delay,
            row.deg6.dev,
            row.deg6.bound,
            row.deg6.cpu_sec,
            row.deg2.core,
            row.deg2.delay,
            row.deg2.dev,
            row.deg2.bound,
            row.deg2.cpu_sec,
        );
        rows.push(row);
    }
    println!("\n{}", table1_markdown(&rows));
    if let Some(dir) = &args.out {
        let path = write_result(dir, "table1.csv", &table1_csv(&rows)).expect("write CSV");
        eprintln!("wrote {}", path.display());
    }
    print_metrics("table1");
}
