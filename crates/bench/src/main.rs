//! `starsim-bench` — regenerates every table and figure of the paper's
//! evaluation section, and the studies of its §III–§V design choices.
//!
//! ```text
//! starsim-bench [--experiment NAME] [--quick] [--seed N] [--out DIR]
//!               [--exec reference|batched|sanitized] [--workers N]
//! starsim-bench --trace PATH [--quick] [--seed N]
//!               [--exec reference|batched|sanitized] [--workers N]
//!
//! NAME ∈ { fig2, fig9, fig10, fig11, fig12, table1, table2,
//!          fig13, fig14, fig15, fig16, table3, ablation, contention,
//!          devices, multigpu, streams, session, lutbuild, all }
//! ```
//!
//! `--trace PATH` runs no experiment: it renders the seeded 2^13-star
//! headline session under a telemetry sink, writes the Chrome trace-event
//! JSON to PATH (loadable in Perfetto) and prints the telemetry rollup
//! table.
//!
//! Sustained multi-frame throughput, latency and the cost of the runtime
//! layers are measured by the repository's benchmark (`perfbench/`), not
//! by this harness.
//!
//! Sequential times are measured wall-clock on this host; GPU times come
//! from the virtual GPU's calibrated Fermi model (see `gpusim`). Shapes —
//! who wins, where the inflection points fall — are the reproduction
//! target, not absolute milliseconds.

mod experiments;

use std::path::PathBuf;

use experiments::{
    ablation, contention, devices, fig2, lutbuild, multigpu, session, streams, table3, test1,
    test2, trace, Context,
};
use starsim_core::ExecMode;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 19] = [
    "fig2",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
    "table2",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table3",
    "ablation",
    "contention",
    "devices",
    "multigpu",
    "streams",
    "session",
    "lutbuild",
];

fn main() {
    let mut ctx = Context::default();
    let mut experiment: Option<String> = None;
    let mut trace_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--experiment" | "-e" => {
                experiment = Some(
                    args.next()
                        .unwrap_or_else(|| usage("missing experiment name")),
                );
            }
            "--quick" => ctx.quick = true,
            "--trace" => {
                trace_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("missing --trace path"))
                        .into(),
                );
            }
            "--seed" => {
                ctx.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --seed"));
            }
            "--out" => {
                ctx.out_dir = args
                    .next()
                    .unwrap_or_else(|| usage("missing --out dir"))
                    .into();
            }
            "--exec" => {
                let mode = args.next().unwrap_or_else(|| usage("missing --exec mode"));
                ctx.exec_mode = ExecMode::parse(&mode)
                    .unwrap_or_else(|| usage(&format!("bad --exec `{mode}`")));
            }
            "--workers" => {
                let n: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --workers"));
                if n == 0 {
                    usage("--workers must be positive");
                }
                ctx.workers = Some(n);
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(path) = trace_path {
        if experiment.is_some() {
            usage("--trace runs no experiment: drop --experiment");
        }
        let rollup = trace::run(&ctx, &path)
            .unwrap_or_else(|e| fail(&format!("writing {}: {e}", path.display())));
        eprintln!("trace: wrote {}", path.display());
        print!("{rollup}");
        return;
    }

    let experiment = experiment.unwrap_or_else(|| String::from("all"));
    let names: &[&str] = match experiment.as_str() {
        "all" => &EXPERIMENTS,
        name => match EXPERIMENTS.iter().position(|&e| e == name) {
            Some(i) => &EXPERIMENTS[i..=i],
            None => usage(&format!("unknown experiment `{name}`")),
        },
    };
    let needs = |group: &[&str]| names.iter().any(|n| group.contains(n));
    let test1_rows = needs(&[
        "fig9", "fig10", "fig11", "fig12", "table1", "table2", "table3",
    ])
    .then(|| test1::run(&ctx));
    let test2_rows =
        needs(&["fig13", "fig14", "fig15", "fig16", "table3"]).then(|| test2::run(&ctx));
    let t1 = || test1_rows.as_deref().unwrap();
    let t2 = || test2_rows.as_deref().unwrap();

    let section = |title: &str, table: experiments::format::Table| {
        println!("\n== {title} ==");
        print!("{}", table.render());
    };

    for &name in names {
        match name {
            "fig2" => section("Fig 2: simulated star image", fig2::run(&ctx)),
            "fig9" => section("Fig 9: test1 overall time", test1::fig9(t1(), &ctx)),
            "fig10" => section("Fig 10: test1 speedups", test1::fig10(t1(), &ctx)),
            "fig11" => section("Fig 11: test1 kernel time", test1::fig11(t1(), &ctx)),
            "fig12" => section("Fig 12: test1 non-kernel time", test1::fig12(t1(), &ctx)),
            "table1" => section(
                "Table I: adaptive non-kernel breakdown",
                test1::table1(t1(), &ctx),
            ),
            "table2" => section("Table II: GFLOPS", test1::table2(t1(), &ctx)),
            "fig13" => section("Fig 13: test2 overall time", test2::fig13(t2(), &ctx)),
            "fig14" => section("Fig 14: test2 speedups", test2::fig14(t2(), &ctx)),
            "fig15" => section("Fig 15: test2 breakdown", test2::fig15(t2(), &ctx)),
            "fig16" => section(
                "Fig 16: test2 non-kernel percentage",
                test2::fig16(t2(), &ctx),
            ),
            "table3" => {
                let (t, point) = table3::table3(t1(), t2(), &ctx).unwrap_or_else(|e| fail(&e));
                section("Table III: simulator selection", t);
                println!("{}", table3::summary(&point));
            }
            "ablation" => section(
                "Ablation: star-centric vs pixel-centric",
                ablation::run(&ctx),
            ),
            "contention" => section("Atomic contention vs field density", contention::run(&ctx)),
            "devices" => section("Device sensitivity", devices::run(&ctx)),
            "multigpu" => section("Multi-GPU scaling (future work)", multigpu::run(&ctx)),
            "streams" => section("Stream pipelining estimate", streams::run(&ctx)),
            "session" => section("Session amortization", session::run(&ctx)),
            "lutbuild" => section("LUT build placement (CPU vs GPU)", lutbuild::run(&ctx)),
            other => unreachable!("`{other}` is not in EXPERIMENTS"),
        }
    }
}

/// Reports a failed experiment and exits with the runtime-error status.
fn fail(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(1);
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    // One literal per line: a `\` line continuation would drop the
    // leading spaces that align the continuation lines.
    eprintln!(concat!(
        "usage: starsim-bench [--experiment NAME] [--quick] [--seed N] [--out DIR]\n",
        "                     [--exec reference|batched|sanitized] [--workers N]\n",
        "       starsim-bench --trace PATH [--quick] [--seed N]\n",
        "                     [--exec reference|batched|sanitized] [--workers N]\n",
        "NAME: fig2 fig9 fig10 fig11 fig12 table1 table2 fig13 fig14 fig15 fig16\n",
        "      table3 ablation contention devices multigpu streams session lutbuild\n",
        "      all (default)",
    ));
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
