//! Regenerates **Figure 8**: average maximum delay in the three-dimensional
//! unit sphere, out-degree 10 and out-degree 2, converging to the lower
//! bound 1 (more slowly than 2-D, as the paper notes).

use omt_experiments::cli::ExpArgs;
use omt_experiments::report::{fig8_csv, fig8_markdown, print_metrics, write_result};
use omt_experiments::runner::run_fig8_row;

fn main() {
    let args = ExpArgs::from_env();
    let mut rows = Vec::new();
    for n in args.sizes() {
        let trials = args.trials_for(n);
        eprintln!("running n = {n} ({trials} trials)...");
        let r = run_fig8_row(args.seed(), n, trials);
        println!(
            "n={:>9}  rings={:>5.2}  delay10={:.3} (dev {:.2})  delay2={:.3} (dev {:.2})",
            r.n, r.rings, r.delay10, r.dev10, r.delay2, r.dev2
        );
        rows.push(r);
    }
    println!("\n{}", fig8_markdown(&rows));
    if let Some(dir) = &args.out {
        let p = write_result(dir, "fig8.csv", &fig8_csv(&rows)).expect("write CSV");
        eprintln!("wrote {}", p.display());
    }
    print_metrics("fig8");
}
