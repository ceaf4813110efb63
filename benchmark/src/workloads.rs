//! The four workloads. `README.md` says why each exists.

use splitbft_loadgen::Workload;
use splitbft_node::{AppKind, ProtocolKind};

/// How the generator offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each session keeps `outstanding` requests in flight.
    Closed {
        /// Requests in flight per session.
        outstanding: usize,
    },
    /// Requests go out on a fixed schedule, each when it is due.
    Open {
        /// Aggregate offered rate, requests per second.
        rate: f64,
    },
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Protocol stack.
    pub protocol: ProtocolKind,
    /// Replicated application.
    pub app: AppKind,
    /// Client sessions (each one connection per replica).
    pub sessions: usize,
    /// Closed or open loop.
    pub load: Load,
    /// The operation stream.
    pub ops: Workload,
    /// Keys written before measuring (0 = none).
    pub prefill_keys: u64,
    /// WAL plus sealed checkpoints (with group commit).
    pub durable: bool,
}

/// Key space of the KVS workload.
pub const KVS_KEYS: u64 = 1_000;
/// Value size of every KVS write, prefill included.
pub const KVS_VALUE: usize = 1_024;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Spec> {
    let closed = Load::Closed { outstanding: 16 };
    vec![
        Spec {
            name: "split-closed",
            protocol: ProtocolKind::SplitBft,
            app: AppKind::Counter,
            sessions: 2,
            load: closed,
            ops: Workload::Counter,
            prefill_keys: 0,
            durable: false,
        },
        Spec {
            name: "split-open",
            protocol: ProtocolKind::SplitBft,
            app: AppKind::Counter,
            sessions: 2,
            load: Load::Open { rate: 2_000.0 },
            ops: Workload::Counter,
            prefill_keys: 0,
            durable: false,
        },
        Spec {
            name: "split-kvs-durable",
            protocol: ProtocolKind::SplitBft,
            app: AppKind::Kvs,
            sessions: 2,
            load: closed,
            ops: Workload::Kvs {
                keys: KVS_KEYS,
                value_size: KVS_VALUE,
                read_ratio: 0.5,
            },
            prefill_keys: KVS_KEYS,
            durable: true,
        },
        Spec {
            name: "pbft-closed",
            protocol: ProtocolKind::Pbft,
            app: AppKind::Counter,
            sessions: 2,
            load: closed,
            ops: Workload::Counter,
            prefill_keys: 0,
            durable: false,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}
