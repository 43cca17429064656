//! Runtime configuration: what a [`crate::runtime::RuntimeBuilder`] boots.

use crate::error::{PxError, PxResult};
use crate::gid::LocalityId;
use crate::net::{TcpConfig, WireModel};
use px_balance::BalanceConfig;
use std::time::Duration;

/// Which transport backend carries inter-locality traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportKind {
    /// All localities share this OS process; messages are queue pushes
    /// routed through a delay line with the configured [`WireModel`]
    /// (the default, and the seed runtime's behavior, bit-for-bit).
    InProc,
    /// Each OS process owns one locality and peers over TCP sockets
    /// ([`crate::net::tcp`]). The [`WireModel`] is ignored — the
    /// network's latency is real — and `RuntimeBuilder::build` blocks on
    /// the bootstrap barrier until all N processes are connected.
    Tcp(TcpConfig),
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of localities (≥ 1).
    pub localities: usize,
    /// Worker OS threads per locality (≥ 1).
    pub workers_per_locality: usize,
    /// Inter-locality wire model.
    pub wire: WireModel,
    /// Transport backend selection (defaults to [`TransportKind::InProc`]).
    pub transport: TransportKind,
    /// Parcels coalesced per wire message and destination (see
    /// [`Config::with_max_batch_parcels`]). Defaults to 1: one parcel per
    /// message, no added latency.
    pub max_batch_parcels: usize,
    /// Localities that drain their percolation staging buffer at top
    /// priority (the "precious resources" of §2.2).
    pub accelerators: Vec<LocalityId>,
    /// Adaptive cross-locality load balancing (heat-driven AGAS migration
    /// plus parcel-based work diffusion). `None` (the default) disables
    /// every balancer hook: no gossip, no heat tracking, no shedding —
    /// runtime behavior and parcel counts are identical to a build
    /// without the subsystem.
    pub balance: Option<BalanceConfig>,
    /// Causal tracing (off by default: no ids sampled, no events
    /// recorded, untraced parcels bit-identical on the wire). See
    /// [`crate::trace`] and the README's "Tracing & debugging".
    pub trace: crate::trace::TraceConfig,
    /// Latency-histogram metrics (off by default: no registries
    /// allocated, every hook is one `Option` check, task and parcel
    /// encodings bit-identical). See [`crate::metrics`] and the README's
    /// "Metrics & percentiles".
    pub metrics: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            localities: 4,
            workers_per_locality: 1,
            wire: WireModel::instant(),
            transport: TransportKind::InProc,
            max_batch_parcels: 1,
            accelerators: Vec::new(),
            balance: None,
            trace: crate::trace::TraceConfig::default(),
            metrics: false,
        }
    }
}

impl Config {
    /// Compact constructor for tests and examples.
    pub fn small(localities: usize, workers_per_locality: usize) -> Config {
        Config {
            localities,
            workers_per_locality,
            ..Config::default()
        }
    }

    /// Set the wire latency (builder style).
    pub fn with_latency(mut self, latency: Duration) -> Config {
        self.wire = WireModel {
            latency,
            ..self.wire
        };
        self
    }

    /// Set the wire bandwidth cost in ns/byte (builder style).
    pub fn with_ns_per_byte(mut self, ns: u64) -> Config {
        self.wire = WireModel {
            ns_per_byte: ns,
            ..self.wire
        };
        self
    }

    /// Coalesce up to `n` parcels per wire message (builder style; `1`
    /// disables batching). `n` is the cap: a coalescing port also flushes
    /// at [`crate::net::MAX_BATCH_BYTES`], and a frame that does not fill
    /// leaves at the backend's next pass: the TCP event loop's, or
    /// in-process the delay line's. None of that is configurable.
    pub fn with_max_batch_parcels(mut self, n: usize) -> Config {
        self.max_batch_parcels = n.max(1);
        self
    }

    /// Run over TCP as one locality of a multi-process system (builder
    /// style): this process owns locality `rank`. `localities` is set to
    /// `addrs.len()` — one process per locality — and two entries are
    /// read: `addrs[0]`, where rank 0 listens, and `addrs[rank]`, where
    /// this process binds (port 0 allowed; see
    /// [`crate::net::TcpConfig::addrs`]). The other ranks' addresses are
    /// learned at bootstrap. See the README's "Distributed deployment".
    pub fn with_tcp(mut self, rank: u16, addrs: Vec<String>) -> Config {
        self.localities = addrs.len();
        self.transport = TransportKind::Tcp(TcpConfig::new(rank, addrs));
        self
    }

    /// Mark a locality as a percolation-priority accelerator.
    pub fn with_accelerator(mut self, loc: LocalityId) -> Config {
        self.accelerators.push(loc);
        self
    }

    /// Enable the cross-locality balancer with the given configuration
    /// (builder style). See [`BalanceConfig::adaptive`],
    /// [`BalanceConfig::work_to_data`], [`BalanceConfig::data_to_work`].
    pub fn with_balance(mut self, balance: BalanceConfig) -> Config {
        self.balance = Some(balance);
        self
    }

    /// Enable causal tracing, sampling one in `n` untraced root parcels
    /// (builder style; `1` traces everything, `0` turns tracing off).
    /// Parcels given an explicit id
    /// ([`crate::runtime::Runtime::send_action_traced`]) are always
    /// recorded regardless of the sampling rate.
    pub fn with_trace_sampling(mut self, n: u64) -> Config {
        self.trace.sample_every = n;
        self
    }

    /// Enable (or disable) the latency-histogram metrics plane (builder
    /// style): per-locality lock-free histograms for queue wait, action
    /// execute time, spawn→resolution latency, transport drain, and
    /// control-lane delivery — queryable via
    /// [`crate::runtime::Runtime::metrics_text`] and merged cluster-wide
    /// by [`crate::runtime::Runtime::cluster_metrics`].
    pub fn with_metrics(mut self, enabled: bool) -> Config {
        self.metrics = enabled;
        self
    }

    pub(crate) fn validate(&self) -> PxResult<()> {
        if self.localities == 0 || self.localities > u16::MAX as usize {
            return Err(PxError::BadConfig(format!(
                "localities must be in 1..=65535, got {}",
                self.localities
            )));
        }
        if self.workers_per_locality == 0 {
            return Err(PxError::BadConfig(
                "workers_per_locality must be ≥ 1".into(),
            ));
        }
        for a in &self.accelerators {
            if a.0 as usize >= self.localities {
                return Err(PxError::BadConfig(format!("accelerator {a} out of range")));
            }
        }
        if self.max_batch_parcels == 0 {
            return Err(PxError::BadConfig(
                "max_batch_parcels must be ≥ 1 (1 disables batching)".into(),
            ));
        }
        if let TransportKind::Tcp(tcp) = &self.transport {
            if tcp.addrs.len() != self.localities {
                return Err(PxError::BadConfig(format!(
                    "tcp transport needs one address per locality: {} addrs for {} localities",
                    tcp.addrs.len(),
                    self.localities
                )));
            }
            if tcp.rank as usize >= self.localities {
                return Err(PxError::BadConfig(format!(
                    "tcp rank {} out of range for {} localities",
                    tcp.rank, self.localities
                )));
            }
            if tcp.bootstrap_timeout.is_zero() {
                return Err(PxError::BadConfig(
                    "tcp bootstrap_timeout must be nonzero".into(),
                ));
            }
        }
        if let Some(b) = &self.balance {
            if b.gossip_interval.is_zero() {
                return Err(PxError::BadConfig(
                    "balance gossip_interval must be nonzero".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(Config::small(0, 1).validate().is_err());
        assert!(Config::small(1, 0).validate().is_err());
        assert!(Config::small(2, 1)
            .with_accelerator(LocalityId(5))
            .validate()
            .is_err());
        assert!(Config::small(2, 1).validate().is_ok());
    }
}
