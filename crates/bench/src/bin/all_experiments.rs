//! Runs every table and figure in sequence (convenience wrapper; see the
//! individual binaries `table3`, `table4`, `fig4`–`fig7`). The §VII-D
//! resilience assessment is `protoobf resilience`.

use protoobf_bench::report::{comparative_table, cost_figure, potency_figure};
use protoobf_bench::{run_experiment, ExperimentConfig, Protocol};

fn main() {
    let cfg = ExperimentConfig::default();
    eprintln!("running full evaluation: {} runs/level", cfg.runs_per_level);

    let http = run_experiment(Protocol::Http, &cfg);
    let modbus = run_experiment(Protocol::Modbus, &cfg);

    println!("TABLE III — A COMPARATIVE RESULTS FOR HTTP PROTOCOL");
    print!("{}", comparative_table(&http));
    println!();
    println!("TABLE IV — A COMPARATIVE RESULTS FOR TCP-MODBUS PROTOCOL");
    print!("{}", comparative_table(&modbus));
    println!();
    println!("FIGURE 4 — HTTP COSTS");
    print!("{}", cost_figure(&http));
    println!();
    println!("FIGURE 5 — TCP-MODBUS COSTS");
    print!("{}", cost_figure(&modbus));
    println!();
    println!("FIGURE 6 — HTTP POTENCY");
    print!("{}", potency_figure(&http));
    println!();
    println!("FIGURE 7 — TCP-MODBUS POTENCY");
    print!("{}", potency_figure(&modbus));
}
