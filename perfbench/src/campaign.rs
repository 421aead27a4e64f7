//! `campaign`: one op is one fixed round of supervised bitsliced fault
//! campaigns (`run_supervised_campaign_with_threads`, one thread) over
//! four kernel-driven single-cycle cores, checkpointing to a fresh
//! state directory. In every round the first design's campaign is
//! stopped midway through the `abort_after` hook and resumed from its
//! checkpoint, so checkpoint writes and resume reads are both timed and
//! every round does the same work.

use std::path::{Path, PathBuf};

use printed_microprocessors::core::kernels::{self, Kernel};
use printed_microprocessors::core::{generate_standard, CoreConfig, ProgramWorkload};
use printed_microprocessors::netlist::fault::{
    lane_utilization, run_campaign_with_threads, CampaignConfig, CampaignResult, StuckAtSpace,
};
use printed_microprocessors::netlist::resilience::{
    campaign_identity, run_supervised_campaign_with_threads, ResilienceConfig, SupervisedRun,
};
use printed_microprocessors::netlist::Netlist;
use printed_microprocessors::obs;

use crate::inputs::campaign_seeds;
use crate::layers::{self, Halves, Layers};
use crate::spans::Tracer;
use crate::stats::{end_to_end, Report};
use crate::{median_secs, timed_phase, Args, StateDir};

/// The campaign designs: (name, kernel, core width, data width). Names
/// match the `netlist.campaign_ms.<design>` per-layer metrics.
/// Kernels whose golden runs are 75–183 cycles keep a round near 100 ms
/// on one thread; crc8's 800-cycle stream would take 5x that.
const DESIGNS: [(&str, Kernel, usize, usize); 4] = [
    ("mult8_p1_8_2", Kernel::Mult, 8, 8),
    ("mult16_p1_8_2", Kernel::Mult, 8, 16),
    ("mult16_p1_16_2", Kernel::Mult, 16, 16),
    ("thold8_p1_8_2", Kernel::THold, 8, 8),
];

/// Sampled stuck-at faults and SEUs per campaign: 189 faults fill
/// three 63-lane words exactly.
const STUCK_SAMPLES: usize = 126;
const SEU_SAMPLES: usize = 63;
const CYCLE_BUDGET: u64 = 20_000;
const SETUP_REPS: usize = 5;
const MIN_ROUNDS: usize = 40;
const REPLAY_REPS: usize = 5;

/// One design, built in set-up.
pub struct Design {
    pub name: &'static str,
    pub netlist: Netlist,
    pub workload: ProgramWorkload,
    pub config: CampaignConfig,
}

/// Builds the cores and workloads; campaign seeds come from `seed`.
pub fn build_designs(seed: u64) -> Vec<Design> {
    let seeds = campaign_seeds(seed, DESIGNS.len());
    DESIGNS
        .iter()
        .zip(seeds)
        .map(|(&(name, kernel, core_width, data_width), seed)| {
            let core = CoreConfig::new(1, core_width, 2);
            let program = kernels::generate(kernel, core_width, data_width)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let workload = ProgramWorkload::from_kernel(&program, core)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let config = CampaignConfig {
                cycle_budget: CYCLE_BUDGET,
                stuck_at: StuckAtSpace::Sampled(STUCK_SAMPLES),
                seu_samples: SEU_SAMPLES,
                seed,
                warm_start: false,
                bitsliced: true,
            };
            Design { name, netlist: generate_standard(&core), workload, config }
        })
        .collect()
}

fn supervised(d: &Design, ckpt: Option<&Path>, abort_after: Option<usize>) -> SupervisedRun {
    let resilience = ResilienceConfig {
        checkpoint_dir: ckpt.map(Path::to_path_buf),
        abort_after,
        ..ResilienceConfig::default()
    };
    run_supervised_campaign_with_threads(&d.netlist, &d.workload, &d.config, &resilience, 1)
        .unwrap_or_else(|e| panic!("{}: supervised campaign: {e}", d.name))
}

/// One design's share of a round: an uninterrupted checkpointed run,
/// or (`resume`) a run aborted halfway plus its resume that must
/// restore checkpoint slots. Returns the completed result.
fn campaign_op(
    d: &Design,
    ckpt: &Path,
    resume: bool,
    tr: &mut Tracer,
) -> Result<CampaignResult, String> {
    let span = format!("netlist.campaign_ms.{}", d.name);
    if !resume {
        let run = tr.span(&span, |_| supervised(d, Some(ckpt), None));
        let done = run.into_complete().ok_or("uninterrupted run aborted")?;
        return Ok(done.result);
    }
    let half = (STUCK_SAMPLES + SEU_SAMPLES) / 2;
    match tr.span(&span, |_| supervised(d, Some(ckpt), Some(half))) {
        SupervisedRun::Aborted { .. } => {}
        SupervisedRun::Complete(_) => return Err("abort_after did not stop the run".into()),
    }
    let run = tr.span("resilience.resume", |_| supervised(d, Some(ckpt), None));
    let done = run.into_complete().ok_or("resumed run aborted")?;
    if done.stats.resumed_slots == 0 {
        return Err("resume restored no checkpoint slots".into());
    }
    Ok(done.result)
}

/// Per-design oracles computed outside the timed phase: the scalar
/// engine's CSV for each campaign.
fn scalar_oracles(designs: &[Design]) -> Vec<String> {
    designs
        .iter()
        .map(|d| {
            let scalar = CampaignConfig { bitsliced: false, ..d.config };
            run_campaign_with_threads(&d.netlist, &d.workload, &scalar, 1)
                .unwrap_or_else(|e| panic!("{}: scalar oracle: {e}", d.name))
                .to_csv()
        })
        .collect()
}

/// Runs round `index`; returns whether every campaign's CSV matched its
/// oracle, and the completed results.
fn round(
    designs: &[Design],
    oracles: &[String],
    ckpt: &Path,
    index: usize,
    tr: &mut Tracer,
) -> (bool, Vec<CampaignResult>) {
    let mut ok = true;
    let mut results = Vec::with_capacity(designs.len());
    tr.span("campaign.rest", |tr| {
        for (i, (d, oracle)) in designs.iter().zip(oracles).enumerate() {
            match campaign_op(d, ckpt, i == 0, tr) {
                Ok(result) => {
                    ok &= csv_matches(&result, oracle);
                    results.push(result);
                }
                Err(e) => {
                    println!("campaign: round {index} {}: {e}", d.name);
                    ok = false;
                }
            }
        }
    });
    (ok, results)
}

/// The oracle check: the campaign CSV is byte-identical to the scalar
/// engine's.
pub fn csv_matches(result: &CampaignResult, oracle: &str) -> bool {
    result.to_csv() == oracle
}

pub fn run(args: &Args, state: &StateDir) -> Report {
    let mut report = Report::default();
    let mut designs = Vec::new();
    // Set-up builds the cores and workloads and runs each campaign once
    // cold, without checkpoints; repeated.
    let setup_s = median_secs(SETUP_REPS, |_| {
        designs = build_designs(args.seed);
        for d in &designs {
            supervised(d, None, None);
        }
    });
    let oracles = scalar_oracles(&designs);
    let ckpt: PathBuf = state.fresh("ckpt");
    let runs_per_round = (STUCK_SAMPLES + SEU_SAMPLES) * designs.len();
    let mut tr = Tracer::new(false);

    if !args.trace {
        let op_ms = timed_phase(args.seconds, MIN_ROUNDS, |i| {
            report.check(round(&designs, &oracles, &ckpt, i, &mut tr).0);
        });
        let work = (op_ms.len() * runs_per_round) as f64;
        println!("campaign: {}", end_to_end(&mut report, setup_s, &op_ms, work));
        return report;
    }

    let mut results = Vec::new();
    let halves = Halves::run(args.seconds, MIN_ROUNDS / 2, |i, tr| {
        let (ok, r) = round(&designs, &oracles, &ckpt, i, tr);
        report.check(ok);
        results = r;
    });
    halves.check_tiling("campaign", &mut report);
    let rounds = halves.traced_ms.len() as f64;
    let mut measured = Layers::new();
    for d in &designs {
        let name = format!("netlist.campaign_ms.{}", d.name);
        measured.insert(layers::key(&name), halves.per_op_ms(&name));
    }
    measured.insert("resilience.resume_ms", halves.per_op_ms("resilience.resume"));
    measured.insert("campaign.rest_ms", halves.per_op_ms("campaign.rest"));
    let resumed = obs::global().counter("resilience.resumed_slots").unwrap_or(0);
    measured.insert("resilience.resumed_slots", resumed as f64 / rounds);
    fault_counts(&results, &mut measured);
    replay_checkpoint_and_golden(&designs, &ckpt, &mut measured);
    measured.insert(
        "obs.trace_overhead_frac",
        layers::trace_overhead(&halves.traced_ms, &halves.plain_ms),
    );
    layers::emit("campaign", &mut report, &measured);
    report
}

/// Fault counts of one uninterrupted round.
fn fault_counts(results: &[CampaignResult], measured: &mut Layers) {
    let runs: usize = results.iter().map(|r| r.runs.len()).sum();
    let words: usize = results.iter().map(|r| r.runs.len().div_ceil(63)).sum();
    let occupied: f64 = results
        .iter()
        .map(|r| lane_utilization(r.runs.len()) * (r.runs.len().div_ceil(63) * 64) as f64)
        .sum();
    let hangs: usize = results.iter().map(|r| r.counts().hang).sum();
    measured.insert("netlist.fault.runs", runs as f64);
    measured.insert("netlist.fault.bitsliced.words", words as f64);
    measured.insert("netlist.fault.lane_utilization", occupied / (words * 64).max(1) as f64);
    measured.insert("netlist.fault.hang_frac", hangs as f64 / runs.max(1) as f64);
}

/// Replays each design's campaign with and without checkpointing, and
/// its golden run through `campaign_identity`. Values are per round
/// (summed over the designs), medians of [`REPLAY_REPS`].
fn replay_checkpoint_and_golden(designs: &[Design], ckpt: &Path, measured: &mut Layers) {
    let mut checkpoint_ms = 0.0;
    let mut golden_ms = 0.0;
    for d in designs {
        let with = median_secs(REPLAY_REPS, |_| {
            supervised(d, Some(ckpt), None);
        });
        let without = median_secs(REPLAY_REPS, |_| {
            supervised(d, None, None);
        });
        checkpoint_ms += (with - without) * 1e3;
        golden_ms += median_secs(REPLAY_REPS, |_| {
            campaign_identity(&d.netlist, &d.workload, &d.config)
                .unwrap_or_else(|e| panic!("{}: golden run: {e}", d.name));
        }) * 1e3;
    }
    measured.insert("resilience.checkpoint_ms", checkpoint_ms);
    measured.insert("netlist.golden_ms", golden_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resumed_and_scalar_runs_match_and_corruption_is_caught() {
        let designs = build_designs(9);
        let d = &designs[0];
        let oracle = &scalar_oracles(std::slice::from_ref(d))[0];
        let dir = std::env::temp_dir().join(format!("perfbench-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tr = Tracer::new(false);
        let whole = campaign_op(d, &dir, false, &mut tr).unwrap();
        let resumed = campaign_op(d, &dir, true, &mut tr).unwrap();
        assert!(csv_matches(&whole, oracle), "bitsliced equals scalar");
        assert!(csv_matches(&resumed, oracle), "resumed equals uninterrupted");
        let mut corrupted = whole.clone();
        corrupted.runs.swap(0, 1);
        assert!(!csv_matches(&corrupted, oracle), "a corrupted CSV fails the check");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
