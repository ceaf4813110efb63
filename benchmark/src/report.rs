//! Turning measurements into named metrics, the result line, the run's
//! self-description and the span file.

use crate::cluster::{CLUSTER_SEED, GROUP_COMMIT, REPLICAS};
use crate::gen::GenStats;
use crate::timed::{LayerLog, Span};
use crate::workloads::{Load, Spec};
use crate::{procfs, Measured};
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a few values (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// p99 of the generator's send lag, in µs.
pub fn lag_p99_us(stats: &GenStats) -> f64 {
    let mut lag = stats.lag.clone();
    lag.sort_unstable();
    percentile(&lag, 0.99) as f64 / 1e3
}

/// Named metrics with units, in the order they were pushed.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric. Non-finite values are a bug in the benchmark.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.entries.push((name.to_string(), value, unit));
    }

    /// The last line of standard output.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut line = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }

    /// A table for people, before the result line.
    pub fn print_table(&self, spec: &Spec, heading: &str) {
        println!("# {} {heading}", spec.name);
        for (name, value, unit) in &self.entries {
            println!("#   {name:<36} {value:>16.4} {unit}");
        }
    }
}

/// The run's self-description as a JSON object.
pub fn context(spec: &Spec, seed: u64, traced: bool, seconds: u64) -> String {
    let load = match spec.load {
        Load::Closed { outstanding } => {
            format!(
                "\"closed\", \"sessions\": {}, \"outstanding\": {outstanding}",
                spec.sessions
            )
        }
        Load::Open { rate } => format!(
            "\"open\", \"sessions\": {}, \"rate_rps\": {rate}",
            spec.sessions
        ),
    };
    format!(
        "{{\"git_revision\": \"{}\", \"nproc\": {}, \"build_profile\": \"{}\", \
         \"transport\": \"evented\", \"workload\": \"{}\", \"protocol\": \"{}\", \"app\": \"{}\", \
         \"replicas\": {REPLICAS}, \"load\": {load}, \"durable\": {}, \"group_commit_us\": {}, \
         \"workload_seed\": {seed}, \"cluster_seed\": {CLUSTER_SEED}, \"traced\": {traced}, \
         \"seconds\": {seconds}}}",
        procfs::git_revision(),
        procfs::nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        spec.name,
        spec.protocol,
        spec.app,
        spec.durable,
        if spec.durable {
            GROUP_COMMIT.as_micros()
        } else {
            0
        },
    )
}

/// Whole-window figures of an untraced run, kept beside the result: the
/// end-to-end metrics take medians over ticks, these do not.
pub fn diagnostics(run: &Measured) -> Metrics {
    let gen = &run.gen;
    let mut m = Metrics::default();
    let [start, end] = run.edges;
    let secs = end
        .at
        .zip(start.at)
        .map_or(0.0, |(b, a)| (b - a).as_secs_f64());
    let all = run.latencies();
    m.push(
        "window.throughput_rps",
        ratio(gen.completed_in_window as f64, secs),
        "1/s",
    );
    m.push(
        "window.latency_p99_us",
        percentile(&all, 0.99) as f64 / 1e3,
        "us",
    );
    m.push(
        "window.latency_max_us",
        all.last().copied().unwrap_or(0) as f64 / 1e3,
        "us",
    );
    m.push("latency_p99_us", run.latency_p99_us(), "us");
    m.push("window.latency_samples", all.len() as f64, "count");
    m.push(
        "failed_ratio",
        ratio(run.failed() as f64, run.issued() as f64),
        "ratio",
    );
    m.push("loadgen.gen_lag_p99_us", lag_p99_us(gen), "us");
    m.push(
        "loadgen.retransmits_per_req",
        ratio(gen.retransmits as f64, gen.issued as f64),
        "count",
    );
    if let crate::checks::Model::Kvs(kvs) = &run.model {
        m.push("kvs.reads_checked", kvs.reads_checked as f64, "count");
        m.push("kvs.writes_checked", kvs.writes_checked as f64, "count");
    }
    m
}

/// Writes every span, one per line: name, replica, id, parent, start ns,
/// end ns, request (client:timestamp).
pub fn write_spans(path: &Path, logs: &[LayerLog], client: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\treplica\tid\tparent\tstart_ns\tend_ns\trequest")?;
    let layer_spans = logs
        .iter()
        .flat_map(|l| l.spans.iter().map(move |s| (l.layer, s)));
    let client_spans = client.iter().map(|s| ("", s));
    for (layer, span) in layer_spans.chain(client_spans) {
        let replica = span
            .replica
            .map_or_else(|| "-".to_string(), |r| r.to_string());
        let request = span
            .request
            .map_or_else(|| "-".to_string(), |(c, t)| format!("{c}:{t}"));
        let name = if layer.is_empty() {
            span.name.to_string()
        } else {
            format!("{layer}.{}", span.name)
        };
        writeln!(
            out,
            "{name}\t{replica}\t{:x}\t{:x}\t{}\t{}\t{request}",
            span.id, span.parent, span.start, span.end
        )?;
    }
    let dropped: u64 = logs.iter().map(|l| l.spans_dropped).sum();
    if dropped > 0 {
        writeln!(out, "# {dropped} spans dropped at the per-wrapper cap")?;
    }
    out.flush()
}

/// The logs of one layer's wrappers.
fn layer_logs<'a>(logs: &'a [LayerLog], layer: &'a str) -> impl Iterator<Item = &'a LayerLog> {
    logs.iter().filter(move |l| l.layer == layer)
}

/// Sorted durations (ns) of method `name` across `logs`.
fn call_durations<'a>(logs: impl Iterator<Item = &'a LayerLog>, name: &str) -> Vec<u64> {
    let mut all: Vec<u64> = logs
        .flat_map(|l| {
            l.calls
                .iter()
                .filter(|(n, _)| *n == name)
                .flat_map(|(_, d)| d.iter().copied())
        })
        .collect();
    all.sort_unstable();
    all
}

/// The per-layer metrics of a traced run. Per-request figures divide by
/// the requests completed inside the window; counts and times are summed
/// over the four replicas.
pub fn layer_metrics(m: &mut Metrics, spec: &Spec, traced: &Measured, logs: &[LayerLog]) {
    let gen = &traced.gen;
    let req = gen.completed_in_window as f64;
    let per_req = |v: f64| ratio(v, req);
    let us = |ns: u64| ns as f64 / 1e3;
    let [start, end] = traced.edges;
    let window_ns = end
        .at
        .zip(start.at)
        .map_or(0.0, |(b, a)| (b - a).as_nanos() as f64);
    let proto = if spec.protocol == splitbft_node::ProtocolKind::Pbft {
        "pbft"
    } else {
        "core"
    };

    for layer in ["core", "pbft"] {
        let busy: u64 = layer_logs(logs, layer).map(|l| l.busy_ns).sum();
        let primary: u64 = layer_logs(logs, layer)
            .filter(|l| l.replica == 0)
            .map(|l| l.busy_ns)
            .sum();
        let on_message = call_durations(layer_logs(logs, layer), "on_message");
        let (pp, pp_requests) = layer_logs(logs, layer).fold((0, 0), |(a, b), l| {
            (a + l.preprepares.0, b + l.preprepares.1)
        });
        m.push(&format!("{layer}.busy_us_per_req"), per_req(us(busy)), "us");
        m.push(
            &format!("{layer}.primary_busy_ratio"),
            ratio(primary as f64, window_ns),
            "ratio",
        );
        m.push(
            &format!("{layer}.on_message_us_p50"),
            us(percentile(&on_message, 0.50)),
            "us",
        );
        if layer == "core" {
            m.push(
                "core.on_message_us_p99",
                us(percentile(&on_message, 0.99)),
                "us",
            );
            let admit = call_durations(layer_logs(logs, layer), "on_client_requests");
            m.push(
                "core.on_client_requests_us_p50",
                us(percentile(&admit, 0.50)),
                "us",
            );
        }
        m.push(
            &format!("{layer}.preprepare_batch_mean"),
            ratio(pp_requests as f64, pp as f64),
            "requests",
        );
    }

    // Enclave-boundary counters of the SplitBFT compartments, as deltas
    // over the window.
    let mut tee = [[0u64; 3]; 3]; // [compartment][ecalls, bytes_in, boundary_ns]
    let mut peak_memory = 0u64;
    for log in layer_logs(logs, "core") {
        if let [Some(a), Some(b)] = &log.counters {
            for k in 0..3 {
                tee[k][0] += b[k].ecalls - a[k].ecalls;
                tee[k][1] += b[k].bytes_in - a[k].bytes_in;
                tee[k][2] += b[k].boundary_ns - a[k].boundary_ns;
                peak_memory = peak_memory.max(b[k].peak_memory);
            }
        }
    }
    for (k, name) in ["prep", "conf", "exec"].iter().enumerate() {
        m.push(
            &format!("tee.{name}.ecalls_per_req"),
            per_req(tee[k][0] as f64),
            "count",
        );
        m.push(
            &format!("tee.{name}.bytes_in_per_req"),
            per_req(tee[k][1] as f64),
            "B",
        );
    }
    m.push(
        "tee.boundary_us_per_req",
        per_req(us(tee.iter().map(|t| t[2]).sum())),
        "us",
    );
    m.push("tee.peak_memory_kb", peak_memory as f64 / 1024.0, "KiB");

    // The socket host: node-thread CPU, traffic, admission, queues. Host
    // self time subtracts the replica's own time only: the store's time
    // is mostly fsync waiting, which is not node-thread CPU.
    let node_cpu = end.node_cpu_ns - start.node_cpu_ns;
    let hosted: u64 = layer_logs(logs, proto).map(|l| l.busy_ns).sum();
    let (admissions, admitted) =
        layer_logs(logs, proto).fold((0, 0), |(a, b), l| (a + l.admission.0, b + l.admission.1));
    let msgs_out: u64 = layer_logs(logs, proto).map(|l| l.msgs_out).sum();
    m.push("net.node_cpu_us_per_req", per_req(us(node_cpu)), "us");
    m.push(
        "net.host_self_us_per_req",
        per_req((node_cpu as f64 - hosted as f64) / 1e3),
        "us",
    );
    m.push("net.msgs_out_per_req", per_req(msgs_out as f64), "count");
    m.push(
        "net.bytes_in_per_req",
        per_req((end.bytes_in - start.bytes_in) as f64),
        "B",
    );
    m.push(
        "net.bytes_out_per_req",
        per_req((end.bytes_out - start.bytes_out) as f64),
        "B",
    );
    m.push(
        "net.admission_batch_mean",
        ratio(admitted as f64, admissions as f64),
        "requests",
    );
    m.push(
        "net.queue_depth_high_water",
        end.queue_depth_high_water as f64,
        "count",
    );
    m.push(
        "net.ring_refusals",
        (end.ring_refusals - start.ring_refusals) as f64,
        "count",
    );
    m.push(
        "net.reconnects",
        (end.reconnects - start.reconnects) as f64,
        "count",
    );

    // The durability plane: outer wrapper minus inner wrapper.
    let store_busy: u64 = layer_logs(logs, "store").map(|l| l.busy_ns).sum();
    let inner_busy: u64 = if spec.durable {
        layer_logs(logs, proto).map(|l| l.busy_ns).sum()
    } else {
        0
    };
    let mut flushes: Vec<u64> = layer_logs(logs, "store")
        .flat_map(|l| l.fsync_flushes.iter().copied())
        .collect();
    flushes.sort_unstable();
    let wal: u64 = layer_logs(logs, "store").map(|l| l.wal_growth).sum();
    m.push("store.flush_us_p50", us(percentile(&flushes, 0.50)), "us");
    m.push("store.flush_us_p99", us(percentile(&flushes, 0.99)), "us");
    m.push(
        "store.self_us_per_req",
        per_req((store_busy as f64 - inner_busy as f64) / 1e3),
        "us",
    );
    m.push(
        "store.fsyncs_per_req",
        per_req((end.fsyncs - start.fsyncs) as f64),
        "count",
    );
    m.push("store.wal_bytes_per_req", per_req(wal as f64), "B");
    m.push(
        "store.checkpoint_seals",
        (end.checkpoint_seals - start.checkpoint_seals) as f64,
        "count",
    );

    // Checkpoint traffic and the application snapshot it carries.
    let checkpoint: u64 = layer_logs(logs, "core").map(|l| l.checkpoint_bytes).sum();
    let snapshot = layer_logs(logs, proto)
        .map(|l| l.last_snapshot_bytes)
        .max()
        .unwrap_or(0);
    m.push(
        "core.checkpoint_kb_per_req",
        per_req(checkpoint as f64 / 1024.0),
        "KiB",
    );
    m.push("app.snapshot_kb", snapshot as f64 / 1024.0, "KiB");

    // The generator itself.
    m.push("loadgen.gen_lag_p99_us", lag_p99_us(gen), "us");
    m.push(
        "loadgen.quorum_us_per_req",
        per_req(us(gen.quorum_ns)),
        "us",
    );
    m.push(
        "loadgen.replies_per_req",
        per_req(gen.replies_in_window as f64),
        "count",
    );
    m.push(
        "loadgen.retransmits_per_req",
        ratio(gen.retransmits as f64, gen.issued as f64),
        "count",
    );
}
