//! `starsim-bench` — regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! starsim-bench [--experiment NAME] [--quick] [--seed N] [--out DIR]
//!               [--exec reference|batched|sanitized] [--workers N] [--chaos]
//!               [--trace PATH] [--metrics] [--sanitize] [--pipeline] [--server]
//!               [--obsplane] [--analyze]
//!
//! NAME ∈ { fig2, fig9, fig10, fig11, fig12, table1, table2,
//!          fig13, fig14, fig15, fig16, table3, ablation, contention,
//!          devices, multigpu, streams, session, lutbuild, executor,
//!          chaos, trace, sanitize, pipeline, server, obsplane, analyze,
//!          all }
//! ```
//!
//! `--pipeline` is shorthand for `--experiment pipeline`: sustained
//! bursts of the frame loop, with the overlap accounting, the p99 latency
//! gate and the bit-identity sweep (writes `BENCH_PR7.json`).
//!
//! Sustained multi-frame throughput is measured by the repository's
//! benchmark (`perfbench/`, workload `dense-field`), not by this harness.
//!
//! `--server` is shorthand for `--experiment server`: boots an in-process
//! `starsimd`, drives it with concurrent closed-loop clients at several
//! times sustainable demand, and gates on admission behavior, admitted-p99
//! protection and deadline-cancelled-burst resumability (writes
//! `BENCH_PR8.json`).
//!
//! `--obsplane` is shorthand for `--experiment obsplane`: the
//! observability plane's exporter + flight-recorder disabled-overhead
//! gate, a wire scrape + SLO check, a seeded-fault post-mortem
//! round-trip, and the per-device utilization determinism sweep (writes
//! `BENCH_PR9.json`).
//!
//! `--analyze` is shorthand for `--experiment analyze`: the static
//! kernel analyzer's consistency gate — static coalescing/bank-conflict/
//! texture-working-set/occupancy predictions vs dynamic measurements on
//! all three production kernels, report determinism,
//! the perf-defect corpus, and the advisor-runs-once check (writes
//! `BENCH_PR10.json`).
//!
//! `--chaos` is shorthand for `--experiment chaos`: the fault-injection
//! overhead gate plus a seeded recovery run (writes `BENCH_PR3.json`).
//!
//! `--trace PATH` is shorthand for `--experiment trace` with the Chrome
//! trace-event JSON written to PATH (loadable in Perfetto); `--metrics`
//! additionally prints the telemetry rollup table. The trace experiment
//! measures the telemetry overhead gate and writes `BENCH_PR4.json`.
//!
//! `--sanitize` is shorthand for `--experiment sanitize`: the sanitizer's
//! disabled-overhead gate, the clean pass over the three paper simulators
//! in `--exec sanitized` mode, and the known-bad corpus sweep (writes
//! `BENCH_PR5.json`).
//!
//! Sequential times are measured wall-clock on this host; GPU times come
//! from the virtual GPU's calibrated Fermi model (see `gpusim`). Shapes —
//! who wins, where the inflection points fall — are the reproduction
//! target, not absolute milliseconds.

mod experiments;

use experiments::{
    ablation, analyze, chaos, contention, devices, executor, fig2, lutbuild, multigpu, obsplane,
    pipeline, sanitize, server, session, streams, table3, test1, test2, trace, Context,
};
use starsim_core::ExecMode;

fn main() {
    let mut ctx = Context::default();
    let mut experiment = String::from("all");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--experiment" | "-e" => {
                experiment = args
                    .next()
                    .unwrap_or_else(|| usage("missing experiment name"));
            }
            "--quick" => ctx.quick = true,
            "--chaos" => experiment = String::from("chaos"),
            "--trace" => {
                ctx.trace_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("missing --trace path"))
                        .into(),
                );
                experiment = String::from("trace");
            }
            "--metrics" => {
                ctx.metrics = true;
                experiment = String::from("trace");
            }
            "--sanitize" => experiment = String::from("sanitize"),
            "--pipeline" => experiment = String::from("pipeline"),
            "--server" => experiment = String::from("server"),
            "--obsplane" => experiment = String::from("obsplane"),
            "--analyze" => experiment = String::from("analyze"),
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

    let needs_t1 = matches!(
        experiment.as_str(),
        "fig9" | "fig10" | "fig11" | "fig12" | "table1" | "table2" | "table3" | "all"
    );
    let needs_t2 = matches!(
        experiment.as_str(),
        "fig13" | "fig14" | "fig15" | "fig16" | "table3" | "all"
    );

    let t1 = if needs_t1 {
        Some(test1::run(&ctx))
    } else {
        None
    };
    let t2 = if needs_t2 {
        Some(test2::run(&ctx))
    } else {
        None
    };

    let section = |title: &str, table: experiments::format::Table| {
        println!("\n== {title} ==");
        print!("{}", table.render());
    };

    match experiment.as_str() {
        "fig2" => section("Fig 2: simulated star image", fig2::run(&ctx)),
        "fig9" => section(
            "Fig 9: test1 overall time",
            test1::fig9(t1.as_ref().unwrap(), &ctx),
        ),
        "fig10" => section(
            "Fig 10: test1 speedups",
            test1::fig10(t1.as_ref().unwrap(), &ctx),
        ),
        "fig11" => section(
            "Fig 11: test1 kernel time",
            test1::fig11(t1.as_ref().unwrap(), &ctx),
        ),
        "fig12" => section(
            "Fig 12: test1 non-kernel time",
            test1::fig12(t1.as_ref().unwrap(), &ctx),
        ),
        "table1" => section(
            "Table I: adaptive non-kernel breakdown",
            test1::table1(t1.as_ref().unwrap(), &ctx),
        ),
        "table2" => section(
            "Table II: GFLOPS",
            test1::table2(t1.as_ref().unwrap(), &ctx),
        ),
        "fig13" => section(
            "Fig 13: test2 overall time",
            test2::fig13(t2.as_ref().unwrap(), &ctx),
        ),
        "fig14" => section(
            "Fig 14: test2 speedups",
            test2::fig14(t2.as_ref().unwrap(), &ctx),
        ),
        "fig15" => section(
            "Fig 15: test2 breakdown",
            test2::fig15(t2.as_ref().unwrap(), &ctx),
        ),
        "fig16" => section(
            "Fig 16: test2 non-kernel percentage",
            test2::fig16(t2.as_ref().unwrap(), &ctx),
        ),
        "table3" => {
            let (t, point) = table3::table3(t1.as_ref().unwrap(), t2.as_ref().unwrap(), &ctx)
                .unwrap_or_else(|e| fail(&e));
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
        "executor" => section("Executor comparison (host wall-clock)", executor::run(&ctx)),
        "chaos" => section(
            "Chaos mode (fault-plan overhead + seeded recovery)",
            chaos::run(&ctx),
        ),
        "trace" => section(
            "Telemetry (overhead gate + Perfetto trace export)",
            trace::run(&ctx),
        ),
        "sanitize" => section(
            "Sanitizer (disabled-overhead gate + clean pass + corpus)",
            sanitize::run(&ctx),
        ),
        "pipeline" => section("Frame loop (p99 + bit-identity gates)", pipeline::run(&ctx)),
        "server" => section(
            "Server loadgen (admission + deadline + shedding gates)",
            server::run(&ctx),
        ),
        "obsplane" => section(
            "Observability plane (overhead + flight-recorder + utilization gates)",
            obsplane::run(&ctx),
        ),
        "analyze" => section(
            "Static kernel analyzer (static-vs-dynamic consistency gates)",
            analyze::run(&ctx),
        ),
        "all" => {
            let t1 = t1.as_ref().unwrap();
            let t2 = t2.as_ref().unwrap();
            section("Fig 2: simulated star image", fig2::run(&ctx));
            section("Fig 9: test1 overall time", test1::fig9(t1, &ctx));
            section("Fig 10: test1 speedups", test1::fig10(t1, &ctx));
            section("Fig 11: test1 kernel time", test1::fig11(t1, &ctx));
            section("Fig 12: test1 non-kernel time", test1::fig12(t1, &ctx));
            section(
                "Table I: adaptive non-kernel breakdown",
                test1::table1(t1, &ctx),
            );
            section("Table II: GFLOPS", test1::table2(t1, &ctx));
            section("Fig 13: test2 overall time", test2::fig13(t2, &ctx));
            section("Fig 14: test2 speedups", test2::fig14(t2, &ctx));
            section("Fig 15: test2 breakdown", test2::fig15(t2, &ctx));
            section(
                "Fig 16: test2 non-kernel percentage",
                test2::fig16(t2, &ctx),
            );
            let (t, point) = table3::table3(t1, t2, &ctx).unwrap_or_else(|e| fail(&e));
            section("Table III: simulator selection", t);
            println!("{}", table3::summary(&point));
            section(
                "Ablation: star-centric vs pixel-centric",
                ablation::run(&ctx),
            );
            section("Atomic contention vs field density", contention::run(&ctx));
            section("Device sensitivity", devices::run(&ctx));
            section("Multi-GPU scaling (future work)", multigpu::run(&ctx));
            section("Stream pipelining estimate", streams::run(&ctx));
            section("Session amortization", session::run(&ctx));
            section("LUT build placement (CPU vs GPU)", lutbuild::run(&ctx));
            section("Executor comparison (host wall-clock)", executor::run(&ctx));
            section(
                "Chaos mode (fault-plan overhead + seeded recovery)",
                chaos::run(&ctx),
            );
            section(
                "Telemetry (overhead gate + Perfetto trace export)",
                trace::run(&ctx),
            );
            section(
                "Sanitizer (disabled-overhead gate + clean pass + corpus)",
                sanitize::run(&ctx),
            );
            section("Frame loop (p99 + bit-identity gates)", pipeline::run(&ctx));
            section(
                "Server loadgen (admission + deadline + shedding gates)",
                server::run(&ctx),
            );
            section(
                "Observability plane (overhead + flight-recorder + utilization gates)",
                obsplane::run(&ctx),
            );
            section(
                "Static kernel analyzer (static-vs-dynamic consistency gates)",
                analyze::run(&ctx),
            );
        }
        other => usage(&format!("unknown experiment `{other}`")),
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
        "                     [--trace PATH] [--metrics] [--sanitize] [--pipeline] [--server]\n",
        "                     [--obsplane] [--analyze]\n",
        "NAME: fig2 fig9 fig10 fig11 fig12 table1 table2 fig13 fig14 fig15 fig16\n",
        "      table3 ablation contention devices multigpu streams session lutbuild\n",
        "      executor chaos trace sanitize pipeline server obsplane analyze\n",
        "      all (default)",
    ));
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
