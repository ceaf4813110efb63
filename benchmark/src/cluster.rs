//! Hosting the 4-replica cluster inside the benchmark process.
//!
//! Untraced clusters start every replica through the shipped
//! [`start_replica_on`], so they measure the stack as deployed. Traced
//! clusters rebuild the same stack by hand with the arguments
//! `start_replica_on` uses, with [`Timed`] wrappers around the replica
//! and, for durable runs, around the store.

use crate::timed::{splitbft_counters, Recorder, Timed};
use crate::workloads::Spec;
use splitbft_app::{Application, CounterApp, KeyValueStore};
use splitbft_core::SplitBftReplica;
use splitbft_net::backend::{AnyBound, AnyNode, TransportKind};
use splitbft_net::tcp::{PeerAddr, RecoveryPolicy, TcpNodeConfig};
use splitbft_net::transport::Protocol;
use splitbft_node::{
    fault_tolerance_for, start_replica_on, AppKind, ClusterFile, NodeOptions, ProtocolKind,
};
use splitbft_pbft::Replica as PbftReplica;
use splitbft_store::{replica_sealing_identity, DurableProtocol};
use splitbft_tee::{CostModel, ExecMode};
use splitbft_types::{ClusterConfig, ConsensusMessage, ReplicaId};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Replicas in every workload's cluster.
pub const REPLICAS: usize = 4;

/// Master seed the cluster's keys derive from. Fixed, so that only the
/// workload seed varies between runs.
pub const CLUSTER_SEED: u64 = 42;

/// WAL group-commit linger of the durable workload.
pub const GROUP_COMMIT: Duration = Duration::from_micros(200);

/// A running in-process cluster.
pub struct Cluster {
    nodes: Vec<AnyNode>,
    file: ClusterFile,
    data_dir: Option<PathBuf>,
}

impl Cluster {
    /// Binds and starts the cluster `spec` describes. `data_dir` must be
    /// fresh for durable workloads. With a `recorder` the replicas run
    /// inside [`Timed`] wrappers.
    pub fn launch(
        spec: &Spec,
        data_dir: Option<&Path>,
        recorder: Option<&Arc<Recorder>>,
    ) -> io::Result<Cluster> {
        let options = NodeOptions {
            data_dir: data_dir.map(Path::to_path_buf),
            wal_group_commit: if data_dir.is_some() {
                GROUP_COMMIT
            } else {
                Duration::ZERO
            },
            transport: TransportKind::Evented,
            ..NodeOptions::default()
        };
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
        let bound = (0..REPLICAS)
            .map(|id| AnyBound::bind(TransportKind::Evented, ReplicaId(id as u32), loopback))
            .collect::<io::Result<Vec<_>>>()?;
        let replicas = bound
            .iter()
            .map(|b| {
                Ok(PeerAddr {
                    id: b.id(),
                    addr: b.local_addr()?,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let mut nodes = Vec::with_capacity(REPLICAS);
        for b in bound {
            let node = match recorder {
                None => start_replica_on(
                    b,
                    replicas.clone(),
                    spec.protocol,
                    spec.app,
                    CLUSTER_SEED,
                    &options,
                ),
                Some(recorder) => start_traced(b, replicas.clone(), spec, &options, recorder),
            };
            match node {
                Ok(node) => nodes.push(node),
                Err(e) => {
                    nodes.into_iter().for_each(AnyNode::shutdown);
                    return Err(e);
                }
            }
        }
        let file = ClusterFile {
            protocol: spec.protocol,
            seed: CLUSTER_SEED,
            app: spec.app,
            options,
            replicas,
            byzantine: Vec::new(),
        };
        Ok(Cluster {
            nodes,
            file,
            data_dir: data_dir.map(Path::to_path_buf),
        })
    }

    /// The cluster as a client sees it.
    pub fn file(&self) -> &ClusterFile {
        &self.file
    }

    /// The nodes, in replica-id order.
    pub fn nodes(&self) -> &[AnyNode] {
        &self.nodes
    }

    /// Stops every node, waits for its thread, and removes the data dir.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
        if let Some(dir) = self.data_dir {
            // Best effort: a leftover dir under the output dir is harmless.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The traced twin of `start_replica_on` for one replica: the same node
/// configuration, replica constructor arguments and durability wrapping,
/// with [`Timed`] wrappers added.
fn start_traced(
    bound: AnyBound,
    peers: Vec<PeerAddr>,
    spec: &Spec,
    options: &NodeOptions,
    recorder: &Arc<Recorder>,
) -> io::Result<AnyNode> {
    let id = bound.id();
    let n = peers.len();
    let mut config = TcpNodeConfig::new(id, bound.local_addr()?, peers);
    config.batch = options.batch;
    config.timeout_every = options.timeout_every;
    config.fault_injection = options.fault_injection;
    config.status_admin = options.status_admin;
    let durable_dir = match &options.data_dir {
        None => None,
        Some(base) => {
            config.recovery = Some(RecoveryPolicy {
                agreement: fault_tolerance_for(spec.protocol, n)? + 1,
            });
            config.group_commit = options.wal_group_commit;
            Some(base.join(format!("replica-{}", id.0)))
        }
    };
    let cluster = ClusterConfig::new(n)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let host = Host {
        bound,
        config,
        n,
        recorder,
        durable_dir,
        group_commit: options.wal_group_commit,
    };
    match (spec.protocol, spec.app) {
        (ProtocolKind::SplitBft, AppKind::Counter) => host.splitbft(cluster, CounterApp::new()),
        (ProtocolKind::SplitBft, AppKind::Kvs) => host.splitbft(cluster, KeyValueStore::new()),
        (ProtocolKind::Pbft, AppKind::Counter) => host.pbft(cluster, CounterApp::new()),
        (ProtocolKind::Pbft, AppKind::Kvs) => host.pbft(cluster, KeyValueStore::new()),
        (protocol, app) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("no traced stack for {protocol} with {app}"),
        )),
    }
}

struct Host<'a> {
    bound: AnyBound,
    config: TcpNodeConfig,
    n: usize,
    recorder: &'a Arc<Recorder>,
    durable_dir: Option<PathBuf>,
    group_commit: Duration,
}

impl Host<'_> {
    fn splitbft<A: Application + 'static>(
        self,
        cluster: ClusterConfig,
        app: A,
    ) -> io::Result<AnyNode> {
        let id = self.config.id;
        let replica = SplitBftReplica::new(
            cluster,
            id,
            CLUSTER_SEED,
            app,
            ExecMode::Hardware,
            CostModel::paper_calibrated(),
        );
        let timed = Timed::new(
            replica,
            "core",
            id.0,
            self.n,
            Arc::clone(self.recorder),
            true,
            Some(splitbft_counters::<A>),
        );
        self.start(timed)
    }

    fn pbft<A: Application + 'static>(self, cluster: ClusterConfig, app: A) -> io::Result<AnyNode> {
        let id = self.config.id;
        let replica = PbftReplica::new(cluster, id, CLUSTER_SEED, app);
        let timed = Timed::new(
            replica,
            "pbft",
            id.0,
            self.n,
            Arc::clone(self.recorder),
            true,
            None,
        );
        self.start(timed)
    }

    /// Hosts the timed replica directly, or inside the durability plane
    /// with a second wrapper around the store.
    fn start<P: Protocol<Message = ConsensusMessage>>(
        self,
        timed: Timed<P>,
    ) -> io::Result<AnyNode> {
        let id = self.config.id;
        match self.durable_dir {
            None => self.bound.start(self.config, timed),
            Some(dir) => {
                let identity = replica_sealing_identity(CLUSTER_SEED, id);
                let durable = DurableProtocol::recover(timed, &dir, identity)?
                    .with_group_commit(!self.group_commit.is_zero());
                let store = Timed::new(
                    durable,
                    "store",
                    id.0,
                    self.n,
                    Arc::clone(self.recorder),
                    false,
                    None,
                );
                self.bound.start(self.config, store)
            }
        }
    }
}
