//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --exp table2     # print the Table II configuration
//! repro --exp table3     # print the Table III scaling configurations
//! repro --exp fig9a      # Case 1 write response time sweep
//! repro --exp fig9b      # Case 2 write response time sweep
//! repro --exp fig9c      # Case 1 staging memory sweep
//! repro --exp fig9d      # Case 2 staging memory sweep
//! repro --exp fig9e      # execution time, Table II, 1 failure
//! repro --exp fig10      # scalability, Table III, 1..3 failures
//! repro --exp all        # everything
//! repro --exp fig10 --quick        # smaller sweep for smoke testing
//! repro --exp fig10 --seeds 31     # more failure schedules per cell
//! repro --exp fig9a --json out.json # machine-readable rows
//! repro --exp ablations            # GC / proactive / ckpt-target / spares
//! ```

use bench::{
    ablation_ckpt_target, ablation_gc, ablation_proactive, ablation_spares, case1_sweep,
    case2_sweep, fig10, fig9e, period_sweep, print_ablation, print_exec, print_overhead,
    print_period_sweep, print_scale, print_scale_bars,
};
use std::io::Write;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{table2, table3};

fn write_json<T: serde::Serialize>(path: &str, rows: &T) {
    let mut f = std::fs::File::create(path).expect("create json output");
    let s = serde_json::to_string_pretty(rows).expect("serialize rows");
    f.write_all(s.as_bytes()).expect("write json output");
    eprintln!("wrote {path}");
}

fn print_config_table(label: &str, cfgs: &[workflow::WorkflowConfig]) {
    println!("== {label} ==");
    println!(
        "{:>24} {:>8} {:>8} {:>8} {:>8} {:>12} {:>6} {:>6}",
        "label", "cores", "sim", "ana", "staging", "GB/40ts", "ckptS", "ckptA"
    );
    for c in cfgs {
        let gb = (c.bytes_per_step(1000) * c.total_steps as u64) as f64 / (1u64 << 30) as f64;
        println!(
            "{:>24} {:>8} {:>8} {:>8} {:>8} {:>12.0} {:>6} {:>6}",
            c.label,
            c.total_cores(),
            c.components[0].ranks,
            c.components[1].ranks,
            c.nservers,
            gb,
            c.components[0].scheme.period().unwrap_or(0),
            c.components[1].scheme.period().unwrap_or(0),
        );
    }
}

/// Every value `--exp` accepts.
const EXPERIMENTS: [&str; 11] = [
    "all",
    "table2",
    "table3",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "fig9e",
    "fig10",
    "period_sweep",
    "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut exp = "all".to_string();
    let mut json: Option<String> = None;
    let mut quick = false;
    let mut seeds: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                exp = args.get(i + 1).cloned().unwrap_or_default();
                if !EXPERIMENTS.contains(&exp.as_str()) {
                    eprintln!("--exp requires one of: {}", EXPERIMENTS.join(", "));
                    std::process::exit(2);
                }
                i += 2;
            }
            "--json" => {
                json = args.get(i + 1).cloned();
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--seeds" => {
                seeds = args.get(i + 1).and_then(|v| v.parse().ok());
                if seeds.is_none() {
                    eprintln!("--seeds requires a positive integer");
                    std::process::exit(2);
                }
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let run_exp = |name: &str| {
        exp == "all"
            || exp == name
            || (name.starts_with("fig9a") && exp == "fig9c")
            || (name.starts_with("fig9b") && exp == "fig9d")
    };

    if exp == "table2" || exp == "all" {
        print_config_table("Table II", &[table2(WorkflowProtocol::Uncoordinated)]);
        println!();
    }
    if exp == "table3" || exp == "all" {
        let cfgs: Vec<_> = (0..5).map(|s| table3(s, WorkflowProtocol::Uncoordinated, 1)).collect();
        print_config_table("Table III", &cfgs);
        println!();
    }
    if run_exp("fig9a") {
        println!("== Figure 9(a)+(c): Case 1 — subset sweep, logging overhead ==");
        let rows = case1_sweep();
        print_overhead(&rows, "subset %");
        if let Some(p) = &json {
            write_json(p, &rows);
        }
        println!();
    }
    if run_exp("fig9b") {
        println!("== Figure 9(b)+(d): Case 2 — checkpoint period sweep, logging overhead ==");
        let rows = case2_sweep();
        print_overhead(&rows, "period");
        if let Some(p) = &json {
            write_json(p, &rows);
        }
        println!();
    }
    if exp == "fig9e" || exp == "all" {
        println!("== Figure 9(e): total execution time, Table II, one failure ==");
        let rows = fig9e(seeds.unwrap_or(if quick { 3 } else { 15 }));
        print_exec(&rows);
        if let Some(p) = &json {
            write_json(p, &rows);
        }
        println!();
    }
    if exp == "period_sweep" || exp == "all" {
        println!("== checkpoint-period sweep (Un, MTBF 120 s, 4 failures, slow PFS) ==");
        let (rows, young) = period_sweep(seeds.unwrap_or(if quick { 3 } else { 9 }));
        print_period_sweep(&rows, young);
        if let Some(p) = &json {
            write_json(p, &rows);
        }
        println!();
    }
    if exp == "ablations" || exp == "all" {
        print_ablation("garbage collection (Table II, failure-free)", &ablation_gc());
        println!();
        print_ablation("proactive checkpointing (Table II, 3 failures)", &ablation_proactive());
        println!();
        print_ablation(
            "checkpoint target, congested PFS (Table II, 1 failure)",
            &ablation_ckpt_target(),
        );
        println!();
        print_ablation("spare pool vs respawn (Table II, 3 sim failures)", &ablation_spares());
        println!();
    }
    if exp == "fig10" || exp == "all" {
        println!("== Figure 10: scalability, Table III ==");
        let (scales, counts, default_seeds): (std::ops::Range<usize>, &[usize], u64) =
            if quick { (0..2, &[1], 2) } else { (0..5, &[1, 2, 3], 15) };
        let rows = fig10(scales, counts, seeds.unwrap_or(default_seeds));
        print_scale(&rows);
        println!();
        print_scale_bars(&rows);
        if let Some(p) = &json {
            write_json(p, &rows);
        }
        println!();
    }
}
