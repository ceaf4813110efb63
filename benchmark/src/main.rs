//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! splitbft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Hosts a 4-replica cluster on the evented transport inside this process,
//! drives it from one generator thread, checks the results, and prints one
//! JSON object as the last line of standard output. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it runs the untraced
//! stack and then a traced twin, and reports the per-layer metrics plus
//! the tracing overhead. Any failed check exits 1 without a result.

mod checks;
mod cluster;
mod gen;
mod procfs;
mod report;
mod timed;
mod workloads;

use checks::Model;
use cluster::{Cluster, CLUSTER_SEED};
use gen::{Gen, GenStats, Mark};
use report::{percentile, Metrics};
use splitbft_app::KvOp;
use splitbft_node::{reply_quorum_for, run_client, AppKind};
use splitbft_types::ClientId;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use timed::{Phase, Recorder};
use workloads::{Load, Spec};

/// Load offered before the window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// Longest wait for outstanding requests after the window closes.
const DRAIN: Duration = Duration::from_secs(5);
/// The window is measured in ticks of this length; the end-to-end
/// metrics are medians over ticks, so a short stall elsewhere on the host
/// moves one tick, not the result.
const TICK: Duration = Duration::from_secs(1);
/// Set-ups per untraced run, the measured one included; `setup_s` is
/// their median.
const SETUPS: usize = 7;
/// An open-loop run whose generator sent its p99 request later than this
/// after it was due measured the generator, not the cluster.
const LAG_LIMIT_US: f64 = 2_000.0;
/// Where runs leave their records and spans (inside the checkout).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = || format!("{} got unparsable value {value:?}", argv[i]);
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let spec = workloads::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workloads::all().iter().map(|s| s.name).collect();
        format!(
            "unknown workload {:?} (expected one of {names:?})",
            args.workload
        )
    })?;
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let ticks = args.seconds as usize;

    let mut setup_times = Vec::new();
    if !args.trace {
        for _ in 1..SETUPS {
            let (cluster, _, _, secs) =
                set_up(&spec, args.seed, &out, None).map_err(|e| e.to_string())?;
            cluster.shutdown();
            setup_times.push(secs);
        }
    }
    let plain = measure(&spec, args.seed, ticks, &out, None)?;
    setup_times.push(plain.setup_s);

    let mut metrics = Metrics::default();
    let (attempted, failed);
    if args.trace {
        let recorder = Recorder::new();
        let traced = measure(&spec, args.seed, ticks, &out, Some(&recorder))?;
        let logs = recorder.take_logs();
        report::write_spans(
            &out.join(format!("spans-{}-seed{}.tsv", spec.name, args.seed)),
            &logs,
            &traced.gen.spans,
        )
        .map_err(|e| format!("writing spans: {e}"))?;
        // The tail latency and the failure share of the untraced stack are
        // reported here, ungated: neither repeats closely enough to gate on
        // (and the failure share of a healthy run is zero).
        metrics.push("latency_p99_us", plain.latency_p99_us(), "us");
        metrics.push(
            "failed_ratio",
            report::ratio(plain.failed() as f64, plain.issued() as f64),
            "ratio",
        );
        report::layer_metrics(&mut metrics, &spec, &traced, &logs);
        let compared = [
            (
                "throughput",
                "throughput_rps",
                "1/s",
                plain.throughput_rps(),
                traced.throughput_rps(),
            ),
            (
                "cpu",
                "cpu_us_per_req",
                "us",
                plain.cpu_us_per_req(),
                traced.cpu_us_per_req(),
            ),
        ];
        for (short, name, unit, untraced, traced) in compared {
            metrics.push(&format!("trace.untraced_{name}"), untraced, unit);
            metrics.push(&format!("trace.traced_{name}"), traced, unit);
            let change = 100.0 * (traced - untraced) / untraced;
            metrics.push(&format!("trace.{short}_change_pct"), change, "%");
        }
        attempted = traced.issued();
        failed = traced.failed();
    } else {
        metrics.push("throughput_rps", plain.throughput_rps(), "1/s");
        metrics.push("latency_p50_us", plain.latency_p50_us(), "us");
        metrics.push("cpu_us_per_req", plain.cpu_us_per_req(), "us");
        metrics.push("rss_peak_mb", procfs::vm_hwm_kb() as f64 / 1024.0, "MB");
        metrics.push("setup_s", report::median(&mut setup_times), "s");
        attempted = plain.issued();
        failed = plain.failed();
    }

    let diagnostics = report::diagnostics(&plain);
    let context = report::context(&spec, args.seed, args.trace, args.seconds);
    metrics.print_table(&spec, &context);
    diagnostics.print_table(&spec, "diagnostics of the untraced run (ungated)");
    let record = out.join(format!(
        "result-{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    let line = metrics.result_line(attempted, failed);
    let diagnostics = diagnostics.result_line(attempted, failed);
    std::fs::write(
        &record,
        format!(
            "{{\"context\": {context}, \"result\": {line}, \"diagnostics\": {diagnostics}, \
             \"completed_per_tick\": {:?}}}\n",
            plain.gen.completed_per_tick
        ),
    )
    .map_err(|e| format!("writing {}: {e}", record.display()))?;
    Ok(line)
}

/// One measured run and what the checks need from it.
pub struct Measured {
    /// Generator statistics.
    pub gen: GenStats,
    /// The client model, with its check counts.
    pub model: Model,
    /// Process CPU at every tick boundary, ns.
    pub tick_cpu_ns: Vec<u64>,
    /// Seconds from launch to a serving, loaded cluster.
    pub setup_s: f64,
    /// Cluster gauges and thread CPU at the window's edges.
    pub edges: [Edge; 2],
}

impl Measured {
    fn issued(&self) -> u64 {
        self.gen.issued
    }

    fn failed(&self) -> u64 {
        self.gen.timed_out + self.gen.refused + self.gen.errored
    }

    /// Median over ticks of completions per second.
    fn throughput_rps(&self) -> f64 {
        let mut per_tick: Vec<f64> = self
            .gen
            .tick_marks
            .windows(2)
            .zip(&self.gen.completed_per_tick)
            .map(|(t, &done)| done as f64 / (t[1] - t[0]).as_secs_f64())
            .collect();
        report::median(&mut per_tick)
    }

    /// Median over ticks of process CPU per completion.
    fn cpu_us_per_req(&self) -> f64 {
        let mut per_tick: Vec<f64> = self
            .tick_cpu_ns
            .windows(2)
            .zip(&self.gen.completed_per_tick)
            .filter(|(_, &done)| done > 0)
            .map(|(cpu, &done)| (cpu[1] - cpu[0]) as f64 / 1e3 / done as f64)
            .collect();
        report::median(&mut per_tick)
    }

    /// Every measured request's latency, sorted, in ns.
    fn latencies(&self) -> Vec<u64> {
        let mut all = self.gen.latencies.concat();
        all.sort_unstable();
        all
    }

    /// p50 over every measured request, in µs.
    fn latency_p50_us(&self) -> f64 {
        percentile(&self.latencies(), 0.50) as f64 / 1e3
    }

    /// Median over ticks of each tick's p99, in µs: steadier than the
    /// whole window's p99, which a single stall on the host moves.
    fn latency_p99_us(&self) -> f64 {
        let mut p99: Vec<f64> = self
            .gen
            .latencies
            .iter()
            .filter(|l| !l.is_empty())
            .map(|tick| {
                let mut sorted = tick.clone();
                sorted.sort_unstable();
                percentile(&sorted, 0.99) as f64 / 1e3
            })
            .collect();
        report::median(&mut p99)
    }
}

/// Cluster state at one edge of the window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Edge {
    /// When.
    pub at: Option<Instant>,
    /// Process CPU, ns.
    pub process_cpu_ns: u64,
    /// CPU of the four node threads, ns.
    pub node_cpu_ns: u64,
    /// Summed over replicas.
    pub bytes_in: u64,
    /// Summed over replicas.
    pub bytes_out: u64,
    /// Summed over replicas.
    pub fsyncs: u64,
    /// Summed over replicas.
    pub checkpoint_seals: u64,
    /// Summed over replicas.
    pub ring_refusals: u64,
    /// Summed over replicas.
    pub reconnects: u64,
    /// Largest over replicas.
    pub queue_depth_high_water: u64,
}

impl Edge {
    fn take(cluster: &Cluster) -> Edge {
        let mut edge = Edge {
            at: Some(Instant::now()),
            process_cpu_ns: procfs::process_cpu_ns(),
            node_cpu_ns: procfs::threads_cpu_ns("node-", "-evented"),
            ..Edge::default()
        };
        for node in cluster.nodes() {
            let s = node.telemetry().snapshot();
            edge.bytes_in += s.bytes_in;
            edge.bytes_out += s.bytes_out;
            edge.fsyncs += s.fsyncs;
            edge.checkpoint_seals += s.checkpoint_seals;
            edge.ring_refusals += s.ring_refusals;
            edge.reconnects += s.reconnects;
            edge.queue_depth_high_water = edge.queue_depth_high_water.max(s.queue_depth_high_water);
        }
        edge
    }
}

/// Launches the cluster, waits until it commits a first request, opens
/// the sessions and loads the KVS. Returns the counter's value for
/// counter workloads and the seconds it all took.
fn set_up(
    spec: &Spec,
    seed: u64,
    out: &Path,
    recorder: Option<&Arc<Recorder>>,
) -> io::Result<(Cluster, Gen, Option<u64>, f64)> {
    let started = Instant::now();
    let data_dir = spec.durable.then(|| fresh_data_dir(out));
    let cluster = Cluster::launch(spec, data_dir.as_deref(), recorder)?;
    let ready = (|| {
        let first = probe(&cluster, spec)?;
        let model = Model::new(&spec.ops, seed, first.unwrap_or(0));
        let quorum = reply_quorum_for(spec.protocol, cluster.nodes().len())?;
        let addrs: Vec<_> = cluster.file().addrs();
        let mut gen = Gen::connect(
            &addrs,
            spec.sessions,
            CLUSTER_SEED,
            quorum,
            model,
            recorder.cloned(),
        )?;
        if spec.prefill_keys > 0 {
            gen.prefill(spec.prefill_keys, 16, Duration::from_secs(120))?;
        }
        Ok::<_, io::Error>((gen, first))
    })();
    match ready {
        Ok((gen, first)) => Ok((cluster, gen, first, started.elapsed().as_secs_f64())),
        Err(e) => {
            cluster.shutdown();
            Err(e)
        }
    }
}

/// A data directory no earlier run used.
fn fresh_data_dir(out: &Path) -> PathBuf {
    for n in 0.. {
        let dir = out.join(format!("data-{}-{n}", std::process::id()));
        if !dir.exists() {
            return dir;
        }
    }
    unreachable!("some directory name is free")
}

/// Commits one request through a plain client. For the counter it reads
/// the value; for the KVS it reads a key nobody writes.
fn probe(cluster: &Cluster, spec: &Spec) -> io::Result<Option<u64>> {
    let op = match spec.app {
        AppKind::Counter => b"read".to_vec(),
        _ => KvOp::get(b"probe").encode_op().to_vec(),
    };
    let results = run_client(
        cluster.file(),
        spec.protocol,
        ClientId(999),
        &op,
        1,
        Duration::from_secs(30),
    )?;
    if spec.app != AppKind::Counter {
        return Ok(None);
    }
    let bytes: [u8; 8] = results[0][..].try_into().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "counter read returned non-u64 result",
        )
    })?;
    Ok(Some(u64::from_le_bytes(bytes)))
}

/// Sets up, measures one window, drains, checks, and shuts down.
fn measure(
    spec: &Spec,
    seed: u64,
    ticks: usize,
    out: &Path,
    recorder: Option<&Arc<Recorder>>,
) -> Result<Measured, String> {
    let (cluster, mut gen, before, setup_s) =
        set_up(spec, seed, out, recorder).map_err(|e| format!("set-up: {e}"))?;
    let mut edges = [Edge::default(); 2];
    let mut tick_cpu_ns = Vec::with_capacity(ticks + 1);
    gen.run(spec.load, WARMUP, (ticks, TICK), DRAIN, &mut |Mark(
        tick,
    )| {
        if tick == ticks {
            if let Some(r) = recorder {
                r.set_phase(Phase::Done);
            }
        }
        tick_cpu_ns.push(procfs::process_cpu_ns());
        if tick == 0 || tick == ticks {
            edges[usize::from(tick > 0)] = Edge::take(&cluster);
        }
        if tick == 0 {
            if let Some(r) = recorder {
                r.set_phase(Phase::Measure);
            }
        }
    });
    let checked = check(&cluster, spec, &gen, before);
    cluster.shutdown();
    checked?;

    let (gen, model) = gen.finish();
    let measured = Measured {
        gen,
        model,
        tick_cpu_ns,
        setup_s,
        edges,
    };
    if let Load::Open { .. } = spec.load {
        let lag = report::lag_p99_us(&measured.gen);
        if lag > LAG_LIMIT_US {
            return Err(format!(
                "invalid run: the generator sent its p99 request {lag:.0} us after it was due \
                 (limit {LAG_LIMIT_US:.0} us), so the latencies measure the generator"
            ));
        }
    }
    Ok(measured)
}

/// Every correctness check of one run; all violations in one message.
fn check(cluster: &Cluster, spec: &Spec, gen: &Gen, before: Option<u64>) -> Result<(), String> {
    let stats = &gen.stats;
    let mut violations = stats.violations.clone();
    let note = |violations: &mut Vec<String>, r: Result<(), String>| {
        if let Err(v) = r {
            violations.push(v);
        }
    };
    note(
        &mut violations,
        checks::failures_accounted(
            stats.issued,
            stats.completed,
            stats.timed_out + stats.refused + stats.errored,
        ),
    );
    let mut sorted: Vec<u64> = stats.latencies.concat();
    sorted.sort_unstable();
    if let Some(&max) = sorted.last() {
        note(
            &mut violations,
            checks::percentiles_monotone(percentile(&sorted, 0.50), percentile(&sorted, 0.99), max),
        );
    }
    if let (Some(before), Model::Counter(counter)) = (before, gen.model()) {
        match probe(cluster, spec) {
            Ok(Some(after)) => {
                note(
                    &mut violations,
                    checks::counter_commits(
                        before,
                        after,
                        counter.completed,
                        stats.unknown_outcome,
                    ),
                );
                note(
                    &mut violations,
                    checks::counter_results_in_range(after, counter.highest),
                );
            }
            Ok(None) => {}
            Err(e) => violations.push(format!("counter probe after the run failed: {e}")),
        }
    }
    // Backups may trail the primary by a few slots for a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let progress: Vec<u64> = cluster.nodes().iter().map(|n| n.progress()).collect();
        let verdict = checks::progress_equal(&progress);
        if verdict.is_ok() || Instant::now() >= deadline {
            note(&mut violations, verdict);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "correctness check failed:\n  {}",
            violations.join("\n  ")
        ))
    }
}
