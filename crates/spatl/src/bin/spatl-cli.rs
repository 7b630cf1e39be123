//! `spatl-cli` — command-line front end for the SPATL reproduction.
//!
//! ```text
//! spatl-cli run       --algorithm spatl --model resnet20 --clients 10 --rounds 20
//! spatl-cli pretrain  --model resnet56 --rounds 30 --out agent.json
//! spatl-cli prune     --model resnet56 --budget 0.6 [--agent agent.json]
//! spatl-cli transfer  --model-file pruned.json --samples 300
//! ```
//!
//! Arguments are `--key value` pairs checked against the sub-command's
//! flag set; unknown keys are rejected. Every command prints a
//! human-readable summary and (with `--out`) writes a JSON artefact.

use spatl::cli::{parse_algorithm, parse_args, parse_model, Args};
use spatl::prelude::*;
use std::process::ExitCode;

const RUN_FLAGS: [&str; 10] = [
    "algorithm",
    "model",
    "clients",
    "rounds",
    "samples-per-client",
    "local-epochs",
    "beta",
    "sample-ratio",
    "seed",
    "out",
];
const PRETRAIN_FLAGS: [&str; 5] = ["model", "rounds", "budget", "seed", "out"];
const PRUNE_FLAGS: [&str; 5] = ["model", "budget", "seed", "agent", "out"];
const TRANSFER_FLAGS: [&str; 4] = ["model-file", "samples", "epochs", "seed"];

fn cmd_run(args: &Args) -> Result<(), String> {
    let algorithm = parse_algorithm(args.get("algorithm").unwrap_or("spatl"))?;
    let model = parse_model(args.get("model").unwrap_or("resnet20"))?;
    let clients: usize = args.get_or("clients", 10);
    let rounds: usize = args.get_or("rounds", 10);
    let samples: usize = args.get_or("samples-per-client", 80);
    let epochs: usize = args.get_or("local-epochs", 2);
    let beta: f64 = args.get_or("beta", 0.5);
    let ratio: f32 = args.get_or("sample-ratio", 1.0);
    let seed: u64 = args.get_or("seed", 0);

    let experiment = ExperimentBuilder::new(algorithm)
        .model(model)
        .clients(clients)
        .sample_ratio(ratio)
        .samples_per_client(samples)
        .rounds(rounds)
        .local_epochs(epochs)
        .beta(beta)
        .seed(seed);
    if let Err(e) = experiment.check(Topology::Flat) {
        // A session that cannot run is a usage error, like a malformed
        // flag value: exit 2 before anything is synthesised.
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    println!(
        "running {} / {} — {clients} clients × {rounds} rounds (β={beta}, ratio={ratio})",
        algorithm.name(),
        model.name()
    );
    let mut sim = experiment.build();
    for _ in 0..rounds {
        let r = sim.run_round();
        println!(
            "round {:>3}: acc {:5.1}%  comm {:8.2} MB  upload-keep {:4.0}%",
            r.round + 1,
            r.mean_acc * 100.0,
            r.cumulative_bytes as f64 / 1e6,
            r.mean_keep_ratio * 100.0
        );
    }
    let result = sim.result();
    println!(
        "\nbest {:.1}% | final {:.1}% | {:.2} MB total",
        result.best_acc() * 100.0,
        result.final_acc() * 100.0,
        result.total_bytes() as f64 / 1e6
    );
    if let Some(out) = args.get("out") {
        spatl::save_result(&result, out).map_err(|e| e.to_string())?;
        println!("results written to {out}");
    }
    Ok(())
}

fn cmd_pretrain(args: &Args) -> Result<(), String> {
    let model_kind = parse_model(args.get("model").unwrap_or("resnet56"))?;
    let rounds: usize = args.get_or("rounds", 20);
    let budget: f32 = args.get_or("budget", 0.7);
    let seed: u64 = args.get_or("seed", 0);

    let synth = SynthConfig {
        noise_std: 1.0,
        ..SynthConfig::cifar10_like()
    };
    let val = synth_cifar10(&synth, 120, seed ^ 1);
    let model = ModelConfig::cifar(model_kind).with_seed(seed).build();
    let env = PruningEnv::new(model, val, budget);
    let mut agent = ActorCritic::new(AgentConfig::default(), seed);
    let mut rng = TensorRng::seed_from(seed ^ 2);
    println!(
        "pre-training agent on {} pruning ({rounds} rounds)…",
        model_kind.name()
    );
    let log = pretrain_agent(&mut agent, &env, rounds, 4, 4, &mut rng);
    for (i, r) in log.rewards.iter().enumerate() {
        println!("update {:>3}: mean reward {r:.3}", i + 1);
    }
    if let Some(out) = args.get("out") {
        spatl::save_agent(&agent, out).map_err(|e| e.to_string())?;
        println!("agent ({} KB) written to {out}", agent.param_bytes() / 1024);
    }
    Ok(())
}

fn cmd_prune(args: &Args) -> Result<(), String> {
    let model_kind = parse_model(args.get("model").unwrap_or("resnet56"))?;
    let budget: f32 = args.get_or("budget", 0.6);
    let seed: u64 = args.get_or("seed", 0);

    let mut model = ModelConfig::cifar(model_kind).with_seed(seed).build();
    let action = match args.get("agent") {
        Some(path) => {
            let agent = spatl::load_agent(path).map_err(|e| e.to_string())?;
            agent.evaluate(&extract(&model)).mu
        }
        None => vec![0.0; model.prune_points.len()],
    };
    let applied = spatl::pruning::project_to_budget(&model, &action, budget);
    apply_sparsities(&mut model, &applied, Criterion::L2);
    let ratio = model.flops() as f64 / model.flops_dense() as f64;
    println!(
        "{}: FLOPs {:.1}% of dense ({} → {} FLOPs)",
        model_kind.name(),
        ratio * 100.0,
        model.flops_dense(),
        model.flops()
    );
    for (p, s) in model.prune_points.iter().zip(&applied) {
        println!("  {:<24} sparsity {:.2}", p.name, s);
    }
    if let Some(out) = args.get("out") {
        spatl::save_model(&model, out).map_err(|e| e.to_string())?;
        println!("pruned model written to {out}");
    }
    Ok(())
}

fn cmd_transfer(args: &Args) -> Result<(), String> {
    let samples: usize = args.get_or("samples", 200);
    let epochs: usize = args.get_or("epochs", 6);
    let seed: u64 = args.get_or("seed", 0);

    let synth = SynthConfig {
        noise_std: 1.2,
        ..SynthConfig::cifar10_like()
    };
    let train = synth_cifar10(&synth, samples, seed ^ 0xAB);
    let val = synth_cifar10(&synth, samples / 2, seed ^ 0xCD);

    let mut model = match args.get("model-file") {
        Some(path) => spatl::load_model(path).map_err(|e| e.to_string())?,
        None => ModelConfig::cifar(ModelKind::ResNet20)
            .with_seed(seed)
            .build(),
    };
    let before = {
        let b = val.as_batch();
        model.evaluate(&b.images, &b.labels)
    };
    adapt_predictor(&mut model, &train, epochs, seed);
    let after = {
        let b = val.as_batch();
        model.evaluate(&b.images, &b.labels)
    };
    println!(
        "predictor-only adaptation: {:.1}% → {:.1}%",
        before * 100.0,
        after * 100.0
    );
    Ok(())
}

const USAGE: &str = "usage: spatl-cli <run|pretrain|prune|transfer> [--key value]…
  run       --algorithm spatl|fedavg|fedprox|scaffold|fednova --model resnet20|resnet32|resnet56|resnet18|vgg11|cnn2
            --clients N --rounds N --samples-per-client N --local-epochs N --beta F --sample-ratio F --seed N [--out FILE]
  pretrain  --model resnet56 --rounds N --budget F --seed N [--out FILE]
  prune     --model resnet56 --budget F --seed N [--agent FILE] [--out FILE]
  transfer  [--model-file FILE] --samples N --epochs N --seed N";

/// A sub-command over its parsed flags.
type Command = fn(&Args) -> Result<(), String>;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (flags, run): (&[&str], Command) = match cmd.as_str() {
        "run" => (&RUN_FLAGS, cmd_run),
        "pretrain" => (&PRETRAIN_FLAGS, cmd_pretrain),
        "prune" => (&PRUNE_FLAGS, cmd_prune),
        "transfer" => (&TRANSFER_FLAGS, cmd_transfer),
        other => {
            eprintln!("error: unknown command '{other}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match parse_args(argv, flags).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
