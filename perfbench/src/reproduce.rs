//! `reproduce`: one op is one full in-process pass over the paper's
//! evaluation — the stage functions `examples/reproduce_all.rs` calls —
//! with every output rendered and folded into a digest instead of
//! printed. Single-threaded.

use printed_microprocessors::baselines::diff::LockstepOptions;
use printed_microprocessors::baselines::BaselineCpu;
use printed_microprocessors::core::{generate_standard, generate_standard_checked, CoreConfig};
use printed_microprocessors::eval::robustness::{self, RobustnessOptions, RobustnessRow};
use printed_microprocessors::eval::{
    feasibility, figure7, figure8, headline, lifetime, lockstep, manufacturing, report,
    static_report, tables,
};
use printed_microprocessors::netlist::fault::lane_utilization;
use printed_microprocessors::netlist::{analysis, dataflow, lint, opt, Netlist};
use printed_microprocessors::pdk::battery::BLUESPARK_30;
use printed_microprocessors::pdk::Technology;
use printed_microprocessors::shop::proto::fnv64;

use crate::layers::{self, Halves, Layers};
use crate::spans::Tracer;
use crate::stats::{end_to_end, Report};
use crate::{median_secs, timed_phase, Args};

/// The stage spans of one pass, in pass order. `eval.rest` is the
/// residual: the cheap tables and everything between the stages.
const STAGES: [&str; 7] = [
    "eval.figure7",
    "eval.lint_summary",
    "eval.static_report",
    "eval.diff_report",
    "eval.figure8",
    "eval.fault_summary",
    "eval.tmr_comparison",
];

/// What one pass produced: the digest of every rendered output and the
/// fault-campaign rows behind the robustness tables.
pub struct Pass {
    pub digest: u64,
    /// Problems the pass's own checks found (lockstep divergences,
    /// dataflow crosscheck failures, stage errors).
    pub problems: Vec<String>,
    pub campaign_rows: Vec<RobustnessRow>,
}

/// Runs one pass. Stage outputs are rendered as `reproduce_all` renders
/// them and folded into `Pass::digest`.
pub fn pass(options: &RobustnessOptions, tr: &mut Tracer) -> Pass {
    tr.span("eval.rest", |tr| {
        let mut out = String::new();
        let mut problems = Vec::new();
        let mut campaign_rows = Vec::new();
        tr.span(STAGES[0], |_| {
            for tech in Technology::ALL {
                out.push_str(&report::figure7_csv(&figure7(tech)));
            }
        });
        tr.span(STAGES[1], |_| {
            for tech in Technology::ALL {
                out.push_str(&report::lint_summary(tech).to_string());
            }
        });
        tr.span(STAGES[2], |_| {
            let reports: Vec<_> = Technology::ALL.map(static_report::static_report).into();
            for r in &reports {
                if r.crosscheck_failures() > 0 || r.total_errors() > 0 {
                    problems.push(format!(
                        "static report {:?}: {} crosscheck failures, {} lint errors",
                        r.technology,
                        r.crosscheck_failures(),
                        r.total_errors()
                    ));
                }
            }
            out.push_str(&static_report::static_json(&reports));
        });
        tr.span(STAGES[3], |_| {
            let diff = lockstep::diff_report(&LockstepOptions::default());
            if diff.divergences() > 0 || diff.wrong_results() > 0 {
                problems.push(format!(
                    "lockstep: {} divergences, {} wrong results",
                    diff.divergences(),
                    diff.wrong_results()
                ));
            }
            out.push_str(&lockstep::diff_json(&diff));
        });
        let cells = tr.span(STAGES[4], |_| match figure8(Technology::Egfet) {
            Ok(cells) => {
                out.push_str(&report::figure8_csv(&cells));
                cells
            }
            Err(e) => {
                problems.push(format!("figure8: {e}"));
                Vec::new()
            }
        });
        tr.span(STAGES[5], |_| match robustness::fault_summary(Technology::Egfet, options) {
            Ok(rows) => {
                out.push_str(&robustness::robustness_csv(&rows));
                campaign_rows.extend(rows);
            }
            Err(e) => problems.push(format!("fault summary: {e}")),
        });
        tr.span(STAGES[6], |_| match robustness::tmr_comparison(Technology::Egfet, options) {
            Ok(cmp) => {
                out.push_str(&robustness::tmr_table(Technology::Egfet, &cmp).to_string());
                for c in cmp {
                    campaign_rows.push(c.base);
                    campaign_rows.push(c.hardened);
                }
            }
            Err(e) => problems.push(format!("TMR comparison: {e}")),
        });
        cheap_tables(&cells, &mut out, &mut problems);
        Pass { digest: fnv64(out.as_bytes()), problems, campaign_rows }
    })
}

/// The tables `reproduce_all` prints besides the seven timed stages.
fn cheap_tables(
    cells: &[printed_microprocessors::eval::Figure8Cell],
    out: &mut String,
    problems: &mut Vec<String>,
) {
    for table in [tables::table1(), tables::table2()] {
        out.push_str(&table.to_string());
    }
    let p1_8_2 = generate_standard(&CoreConfig::new(1, 8, 2));
    let ips = |tech: Technology| analysis::timing(&p1_8_2, tech.library()).fmax().as_hertz();
    out.push_str(&tables::table3(ips(Technology::Egfet), ips(Technology::CntTft)).to_string());
    for table in [tables::table4(), tables::table5(), tables::table6(), tables::table7()] {
        out.push_str(&table.to_string());
    }
    for tech in Technology::ALL {
        for cpu in BaselineCpu::ALL {
            let t = lifetime::full_duty_lifetime(cpu, tech, &BLUESPARK_30);
            out.push_str(&format!("{}:{:?}\n", cpu.name(), t.as_hours()));
        }
    }
    for r in feasibility::catalog() {
        out.push_str(&format!("{}:{}:{:?}\n", r.application, r.core, r.ips.as_hertz()));
    }
    for width in [4usize, 8, 16, 32] {
        let nl = generate_standard(&CoreConfig::new(1, width, 2));
        match manufacturing::report(format!("p1_{width}_2"), &nl, Technology::Egfet, 0.9999, 0.15) {
            Ok(r) => out.push_str(&format!("{}:{}:{:?}\n", r.name, r.devices, r.yield_)),
            Err(e) => problems.push(format!("manufacturing p1_{width}_2: {e}")),
        }
    }
    let rvr = headline::rom_vs_ram();
    out.push_str(&format!("{:?}:{:?}:{:?}\n", rvr.power, rvr.area, rvr.delay));
    let h = headline::ps_headline(&headline::ps_improvements(cells));
    out.push_str(&format!("{:?}:{:?}:{:?}\n", h.max_power, h.max_area, h.max_energy));
    for r in tables::table8_rows(cells) {
        out.push_str(&format!("{}:{}:{}\n", r.kernel, r.standard, r.program_specific));
    }
}

/// Whether a pass is correct: its own checks passed and its digest
/// matches the reference pass's.
pub fn pass_ok(pass: &Pass, reference: u64) -> bool {
    pass.problems.is_empty() && pass.digest == reference
}

fn robustness_options(seed: u64) -> RobustnessOptions {
    RobustnessOptions { seed, ..RobustnessOptions::default() }
}

/// Passes set-up repeats; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest passes a timed phase runs, so the tail percentile exists.
const MIN_PASSES: usize = 12;

pub fn run(args: &Args) -> Report {
    let options = robustness_options(args.seed);
    let mut report = Report::default();
    let mut reference = None;
    let mut tr = Tracer::new(false);
    // Set-up is a cold first pass, repeated; the first one's digest is
    // the reference every timed pass must reproduce.
    let setup_s = median_secs(SETUP_REPS, |_| {
        let p = pass(&options, &mut tr);
        for problem in &p.problems {
            report.problem(format!("set-up pass: {problem}"));
        }
        if *reference.get_or_insert(p.digest) != p.digest {
            report.problem("set-up passes disagree on the digest");
        }
    });
    let reference = reference.expect("set-up ran at least one pass");
    println!("reproduce: seed {} reference digest {reference:016x}", args.seed);

    if !args.trace {
        let op_ms = timed_phase(args.seconds, MIN_PASSES, |_| {
            let p = pass(&options, &mut tr);
            report.check(pass_ok(&p, reference));
        });
        let n = op_ms.len() as f64;
        println!("reproduce: {}", end_to_end(&mut report, setup_s, &op_ms, n));
        return report;
    }

    // Traced run: an untraced half, then a traced half with the obs
    // registry on and a span around every stage.
    let mut rows = Vec::new();
    let halves = Halves::run(args.seconds, MIN_PASSES / 2, |_, tr| {
        let p = pass(&options, tr);
        report.check(pass_ok(&p, reference));
        rows = p.campaign_rows;
    });
    halves.check_tiling("reproduce", &mut report);
    let passes = halves.traced_ms.len() as f64;
    let mut measured = Layers::new();
    for name in STAGES.iter().chain(&["eval.rest"]) {
        measured.insert(layers::key(&format!("{name}_ms")), halves.per_op_ms(name));
    }
    // The program's own registry spans time wall-clock, not CPU.
    let (df_ns, df_calls) = layers::registry_span("netlist.dataflow");
    let (sta_ns, _) = layers::registry_span("netlist.sta");
    measured.insert("netlist.dataflow_ms", df_ns as f64 / 1e6 / passes);
    measured.insert("netlist.dataflow_calls", df_calls as f64 / passes);
    measured.insert("netlist.sta_ms", sta_ns as f64 / 1e6 / passes);
    fault_counts(&rows, &mut measured);
    replay_per_core(&mut measured);
    replay_baselines(&mut measured);
    measured.insert(
        "obs.trace_overhead_frac",
        layers::trace_overhead(&halves.traced_ms, &halves.plain_ms),
    );
    layers::emit("reproduce", &mut report, &measured);
    report
}

/// Fault-campaign counts of one pass from its robustness rows.
fn fault_counts(rows: &[RobustnessRow], measured: &mut Layers) {
    let mut runs = 0usize;
    let mut words = 0usize;
    let mut occupied = 0.0;
    let mut hangs = 0usize;
    for row in rows {
        let n = row.stuck.total() + row.seu.total();
        let w = n.div_ceil(63);
        runs += n;
        words += w;
        occupied += lane_utilization(n) * (w * 64) as f64;
        hangs += row.stuck.hang + row.seu.hang;
    }
    measured.insert("netlist.fault.runs", runs as f64);
    measured.insert("netlist.fault.bitsliced.words", words as f64);
    measured.insert("netlist.fault.lane_utilization", occupied / (words * 64).max(1) as f64);
    measured.insert("netlist.fault.hang_frac", hangs as f64 / runs.max(1) as f64);
}

/// Replay repeats; each replayed layer reports the median.
const REPLAY_REPS: usize = 5;

/// Replays the per-core work of the 24 design points, one public call
/// per layer: `generate_standard_checked`, `lint`, `opt::optimize`.
/// Values are milliseconds per sweep over the 24 points.
pub fn replay_per_core(measured: &mut Layers) {
    let tech = Technology::Egfet;
    let points = CoreConfig::design_space();
    let mut netlists: Vec<Netlist> = Vec::new();
    let generate = median_secs(REPLAY_REPS, |_| {
        netlists = points
            .iter()
            .map(|c| generate_standard_checked(c, tech).expect("design points are DRC-clean"))
            .collect();
    });
    let lint = median_secs(REPLAY_REPS, |_| {
        for nl in &netlists {
            std::hint::black_box(lint::lint(nl, tech.library(), &lint::LintConfig::default()));
        }
    });
    let optimize = median_secs(REPLAY_REPS, |_| {
        for nl in &netlists {
            std::hint::black_box(opt::optimize(nl));
        }
    });
    measured.insert("core.generate_ms", generate * 1e3);
    measured.insert("netlist.lint_ms", lint * 1e3);
    measured.insert("netlist.opt_ms", optimize * 1e3);
}

/// Replays the baseline netlist builds and their dataflow analysis.
fn replay_baselines(measured: &mut Layers) {
    let mut netlists: Vec<Netlist> = Vec::new();
    let build = median_secs(REPLAY_REPS, |_| {
        netlists = BaselineCpu::ALL
            .iter()
            .map(|cpu| cpu.inventory(Technology::Egfet).representative_netlist())
            .collect();
    });
    let analyze = median_secs(REPLAY_REPS, |_| {
        for nl in &netlists {
            std::hint::black_box(dataflow::analyze(nl));
        }
    });
    measured.insert("baselines.netlist_ms", build * 1e3);
    measured.insert("netlist.dataflow_baseline_ms", analyze * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_pass_output_is_counted_as_a_failure() {
        let good = Pass { digest: 42, problems: Vec::new(), campaign_rows: Vec::new() };
        assert!(pass_ok(&good, 42));
        let corrupted = Pass { digest: 43, ..good };
        assert!(!pass_ok(&corrupted, 42), "a digest that differs from the reference fails");
        let diverged =
            Pass { digest: 42, problems: vec!["lockstep".into()], campaign_rows: Vec::new() };
        assert!(!pass_ok(&diverged, 42), "a failed stage check fails the pass");
    }

    #[test]
    fn every_stage_has_a_per_layer_metric() {
        for stage in STAGES.iter().chain(&["eval.rest"]) {
            layers::key(&format!("{stage}_ms"));
        }
    }
}
