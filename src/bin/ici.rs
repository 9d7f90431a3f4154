//! `ici` — command-line front end for the ICIStrategy reproduction.
//!
//! ```text
//! ici simulate [--strategy ici|full|rapidchain] [--nodes N]
//!              [--cluster-size C] [--replication R]
//!              [--blocks B] [--txs T] [--seed S]
//! ici compare  [--nodes N] [--cluster-size C] [--replication R]
//!              [--blocks B] [--txs T] [--seed S]
//! ici plan     [--ledger-gb G] [--nodes N] [--budget-gb B]
//! ici help
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use icistrategy::baselines::analytic::{
    full_replication_per_node, ici_per_node, rapidchain_per_node, LedgerShape,
};
use icistrategy::net::link::LinkModel;
use icistrategy::prelude::*;
use icistrategy::sim::table::{fmt_f64, Table};
use icistrategy::storage::stats::format_bytes;

const HELP: &str = "\
ici — multi-node collaborative storage via clustering (ICDCS 2020 reproduction)

USAGE:
    ici simulate [OPTIONS]     run one strategy and print its summary
    ici compare  [OPTIONS]     run all three strategies on the same workload
    ici plan     [OPTIONS]     size a deployment with the analytic models
    ici help                   show this message

SIMULATE / COMPARE OPTIONS:
    --strategy <ici|full|rapidchain>   (simulate only; default ici)
    --nodes <N>          network size                [default 128]
    --cluster-size <C>   ICI cluster / committee     [default 16]
    --replication <R>    bodies per block per cluster [default 2]
    --blocks <B>         blocks to commit            [default 10]
    --txs <T>            transactions per block      [default 30]
    --seed <S>           master seed                 [default 42]

PLAN OPTIONS:
    --ledger-gb <G>      total ledger size in GiB    [default 100]
    --nodes <N>          network size                [default 4000]
    --budget-gb <B>      per-node disk budget in GiB [default 20]
";

/// The flags `compare` takes; `simulate` takes these and `--strategy`.
const COMPARE_FLAGS: &[&str] = &[
    "nodes",
    "cluster-size",
    "replication",
    "blocks",
    "txs",
    "seed",
];
const SIMULATE_FLAGS: &[&str] = &[
    "strategy",
    "nodes",
    "cluster-size",
    "replication",
    "blocks",
    "txs",
    "seed",
];
const PLAN_FLAGS: &[&str] = &["ledger-gb", "nodes", "budget-gb"];

/// Parse `--key value` pairs, refusing any key `allowed` does not list
/// and any key given twice: a flag that is silently dropped or
/// overwritten runs a different experiment than the one asked for.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{}'", args[i]))?;
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown flag '--{key}' (this command takes --{})",
                allowed.join(", --")
            ));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given more than once"));
        }
        i += 2;
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value '{raw}' for --{key}")),
    }
}

struct CommonOpts {
    nodes: usize,
    cluster_size: usize,
    replication: usize,
    blocks: usize,
    txs: usize,
    seed: u64,
}

/// Parses the flags every strategy shares. `--nodes` and
/// `--cluster-size` size every strategy's network, so they are checked
/// here, once: every strategy and `compare` refuse a zero the same way.
fn common(flags: &HashMap<String, String>) -> Result<CommonOpts, String> {
    let opts = CommonOpts {
        nodes: get(flags, "nodes", 128)?,
        cluster_size: get(flags, "cluster-size", 16)?,
        replication: get(flags, "replication", 2)?,
        blocks: get(flags, "blocks", 10)?,
        txs: get(flags, "txs", 30)?,
        seed: get(flags, "seed", 42)?,
    };
    if opts.nodes == 0 {
        return Err("nodes must be positive".to_string());
    }
    if opts.cluster_size == 0 {
        return Err("cluster_size must be positive".to_string());
    }
    Ok(opts)
}

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 256,
        seed,
        ..WorkloadConfig::default()
    }
}

fn run_strategy(name: &str, opts: &CommonOpts) -> Result<RunSummary, String> {
    match name {
        "ici" => {
            let config = IciConfig::builder()
                .nodes(opts.nodes)
                .cluster_size(opts.cluster_size)
                .replication(opts.replication)
                .link(LinkModel::quiet())
                .seed(opts.seed)
                .build()
                .map_err(|e| e.to_string())?;
            Ok(run::<IciNetwork>(config, opts.blocks, opts.txs, workload(opts.seed)).1)
        }
        "full" => Ok(run::<FullReplicationNetwork>(
            FullConfig {
                nodes: opts.nodes,
                link: LinkModel::quiet(),
                seed: opts.seed,
                ..FullConfig::default()
            },
            opts.blocks,
            opts.txs,
            workload(opts.seed),
        )
        .1),
        "rapidchain" => {
            let shards = opts.nodes.div_ceil(opts.cluster_size * 2).max(1);
            Ok(run::<RapidChainNetwork>(
                RapidChainConfig {
                    nodes: opts.nodes,
                    committee_size: opts.nodes.div_ceil(shards),
                    link: LinkModel::quiet(),
                    seed: opts.seed,
                    ..RapidChainConfig::default()
                },
                (opts.blocks / shards).max(1),
                opts.txs,
                workload(opts.seed),
            )
            .1)
        }
        other => Err(format!("unknown strategy '{other}' (ici|full|rapidchain)")),
    }
}

fn summary_table(title: &str, summaries: &[&RunSummary]) -> Table {
    let mut table = Table::new(
        title,
        [
            "strategy",
            "storage/node",
            "% of ledger",
            "bytes/block",
            "commit p50 (ms)",
            "tps",
        ],
    );
    for s in summaries {
        table.row([
            s.strategy.to_string(),
            format_bytes(s.storage.mean as u64),
            format!("{:.1}%", 100.0 * s.storage_fraction()),
            format_bytes(s.mean_block_bytes as u64),
            fmt_f64(s.commit_latency.p50_ms),
            fmt_f64(s.throughput_tps),
        ]);
    }
    table
}

fn cmd_simulate(flags: HashMap<String, String>) -> Result<(), String> {
    let strategy = flags
        .get("strategy")
        .cloned()
        .unwrap_or_else(|| "ici".to_string());
    let opts = common(&flags)?;
    let summary = run_strategy(&strategy, &opts)?;
    println!(
        "{}",
        summary_table(
            &format!(
                "simulate: {} — N={}, c={}, r={}, {} blocks x {} txs",
                strategy, opts.nodes, opts.cluster_size, opts.replication, opts.blocks, opts.txs
            ),
            &[&summary],
        )
    );
    Ok(())
}

fn cmd_compare(flags: HashMap<String, String>) -> Result<(), String> {
    let opts = common(&flags)?;
    let ici = run_strategy("ici", &opts)?;
    let full = run_strategy("full", &opts)?;
    let rapid = run_strategy("rapidchain", &opts)?;
    println!(
        "{}",
        summary_table(
            &format!(
                "compare: N={}, c={}, r={}, {} blocks x {} txs",
                opts.nodes, opts.cluster_size, opts.replication, opts.blocks, opts.txs
            ),
            &[&full, &rapid, &ici],
        )
    );
    println!(
        "ICI/RapidChain storage ratio: {:.3}",
        ici.storage_fraction() / rapid.storage_fraction().max(1e-12)
    );
    Ok(())
}

fn cmd_plan(flags: HashMap<String, String>) -> Result<(), String> {
    let ledger_gb: u64 = get(&flags, "ledger-gb", 100)?;
    let nodes: usize = get(&flags, "nodes", 4_000)?;
    let budget_gb: u64 = get(&flags, "budget-gb", 20)?;
    let budget = budget_gb << 30;
    let shape = LedgerShape {
        blocks: ledger_gb * 1_024, // ~1 MiB blocks
        mean_body_bytes: 1 << 20,
    };
    let mut table = Table::new(
        format!("plan: {ledger_gb} GiB ledger, {nodes} nodes, {budget_gb} GiB/node budget"),
        ["configuration", "per-node storage", "fits?"],
    );
    table.row([
        "full replication".to_string(),
        format_bytes(full_replication_per_node(shape) as u64),
        fits(full_replication_per_node(shape), budget),
    ]);
    table.row([
        "RapidChain, committees of 250".to_string(),
        format_bytes(rapidchain_per_node(shape, nodes, 250) as u64),
        fits(rapidchain_per_node(shape, nodes, 250), budget),
    ]);
    for c in [16usize, 32, 64, 128] {
        for r in [1usize, 2] {
            let bytes = ici_per_node(shape, c, r);
            table.row([
                format!("ICIStrategy c={c}, r={r}"),
                format_bytes(bytes as u64),
                fits(bytes, budget),
            ]);
        }
    }
    println!("{table}");
    Ok(())
}

fn fits(bytes: f64, budget: u64) -> String {
    if (bytes as u64) <= budget {
        "yes"
    } else {
        "no"
    }
    .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest.to_vec()),
        None => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
    };
    let result = match command {
        "simulate" => parse_flags(&rest, SIMULATE_FLAGS).and_then(cmd_simulate),
        "compare" => parse_flags(&rest, COMPARE_FLAGS).and_then(cmd_compare),
        "plan" => parse_flags(&rest, PLAN_FLAGS).and_then(cmd_plan),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{HELP}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn misspelt_flag_is_refused() {
        let err = parse_flags(&args(&["--node", "16"]), SIMULATE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag '--node'"), "{err}");
        assert!(
            err.contains("--nodes"),
            "names what the command takes: {err}"
        );
    }

    #[test]
    fn flag_of_another_subcommand_is_refused() {
        let err = parse_flags(&args(&["--strategy", "full"]), COMPARE_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag '--strategy'"), "{err}");
        let err = parse_flags(&args(&["--blocks", "2"]), PLAN_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag '--blocks'"), "{err}");
    }

    #[test]
    fn repeated_flag_is_refused() {
        let err =
            parse_flags(&args(&["--nodes", "16", "--nodes", "32"]), SIMULATE_FLAGS).unwrap_err();
        assert_eq!(err, "--nodes given more than once");
    }

    #[test]
    fn valid_flags_parse() {
        let flags = parse_flags(
            &args(&["--strategy", "full", "--nodes", "16", "--seed", "7"]),
            SIMULATE_FLAGS,
        )
        .expect("valid");
        assert_eq!(flags.len(), 3);
        assert_eq!(flags["strategy"], "full");
        let opts = common(&flags).expect("numbers parse");
        assert_eq!((opts.nodes, opts.seed, opts.blocks), (16, 7, 10));
        assert!(parse_flags(&[], PLAN_FLAGS).expect("no flags").is_empty());
    }

    #[test]
    fn zero_nodes_or_cluster_size_is_refused_by_every_strategy() {
        for flag in ["--nodes", "--cluster-size"] {
            let flags = parse_flags(&args(&[flag, "0"]), COMPARE_FLAGS).expect("parses");
            for strategy in ["ici", "full", "rapidchain"] {
                let run = common(&flags).and_then(|opts| run_strategy(strategy, &opts));
                assert!(run.is_err(), "{strategy} with {flag} 0 ran");
            }
        }
    }
}
