//! E10: the Data Vortex interconnect choice (§3.2).
//!
//! The paper picks Coke Reed's Data Vortex for the system network. This
//! harness sweeps offered load on 16-port instances of the Data Vortex,
//! an ideal output-queued crossbar (lower bound), and a 4×4 torus
//! (conventional electrical alternative), under uniform and hotspot
//! traffic, reporting mean latency and sustained throughput.

use crate::table::{f2, print_table};
use px_datavortex::baselines::{crossbar, torus2d};
use px_datavortex::traffic;
use px_datavortex::vortex::{simulate, VortexConfig};
use px_datavortex::NetStats;

/// Ports in every network compared.
pub const PORTS: usize = 16;
/// Injection window, cycles.
pub const CYCLES: u64 = 3_000;
/// Simulation budget.
pub const MAX_CYCLES: u64 = 400_000;

/// One (load, network) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Offered load (packets/port/cycle).
    pub load: f64,
    /// Data Vortex stats.
    pub vortex: NetStats,
    /// Crossbar stats.
    pub crossbar: NetStats,
    /// Torus stats.
    pub torus: NetStats,
}

fn vcfg() -> VortexConfig {
    VortexConfig {
        levels: 4,
        angles: 5,
    }
}

/// Sweep offered load under uniform traffic.
pub fn sweep(loads: &[f64], seed: u64) -> Vec<Row> {
    loads
        .iter()
        .map(|&load| {
            let inj = traffic::uniform(PORTS, load, CYCLES, seed);
            Row {
                load,
                vortex: simulate(vcfg(), &inj, MAX_CYCLES),
                crossbar: crossbar(PORTS, &inj, 2, MAX_CYCLES),
                torus: torus2d(4, &inj, MAX_CYCLES),
            }
        })
        .collect()
}

/// Hotspot comparison at one load.
pub fn hotspot_row(load: f64, hot: f64, seed: u64) -> Row {
    let inj = traffic::hotspot(PORTS, load, hot, CYCLES, seed);
    Row {
        load,
        vortex: simulate(vcfg(), &inj, MAX_CYCLES),
        crossbar: crossbar(PORTS, &inj, 2, MAX_CYCLES),
        torus: torus2d(4, &inj, MAX_CYCLES),
    }
}

/// Print the E10 tables.
pub fn run() -> Vec<Row> {
    let rows = sweep(&[0.05, 0.1, 0.2, 0.3, 0.45, 0.6], 0xda7a);
    println!("\n[E10] {PORTS}-port networks, {CYCLES}-cycle injection window; latency in cycles");
    print_table(
        "E10a — uniform traffic: mean latency (deflections/queueing per packet)",
        &[
            "load", "vortex", "defl/pkt", "crossbar", "torus", "q-ev/pkt",
        ],
        rows.iter().map(|r| {
            vec![
                f2(r.load),
                f2(r.vortex.mean_latency()),
                f2(r.vortex.deflections as f64 / r.vortex.delivered.max(1) as f64),
                f2(r.crossbar.mean_latency()),
                f2(r.torus.mean_latency()),
                f2(r.torus.deflections as f64 / r.torus.delivered.max(1) as f64),
            ]
        }),
    );

    let hot = hotspot_row(0.3, 0.5, 0xda7a);
    print_table(
        "E10b — hotspot traffic (50% of packets to port 0, load 0.3)",
        &[
            "network",
            "mean latency",
            "delivered frac",
            "throughput pkt/cyc",
        ],
        [
            vec![
                "vortex".into(),
                f2(hot.vortex.mean_latency()),
                f2(hot.vortex.delivery_rate()),
                f2(hot.vortex.throughput()),
            ],
            vec![
                "crossbar".into(),
                f2(hot.crossbar.mean_latency()),
                f2(hot.crossbar.delivery_rate()),
                f2(hot.crossbar.throughput()),
            ],
            vec![
                "torus".into(),
                f2(hot.torus.mean_latency()),
                f2(hot.torus.delivery_rate()),
                f2(hot.torus.throughput()),
            ],
        ],
    );
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn vortex_latency_flat_then_rises() {
        let rows = super::sweep(&[0.05, 0.45], 3);
        let lo = &rows[0].vortex;
        let hi = &rows[1].vortex;
        assert_eq!(lo.delivered, lo.injected);
        assert!(hi.mean_latency() >= lo.mean_latency());
        // Deflection routing: latency grows but stays bounded at 0.45 load
        // on uniform traffic (the Vortex selling point).
        assert!(
            hi.mean_latency() < 40.0 * lo.mean_latency().max(1.0),
            "vortex saturated unexpectedly: {} vs {}",
            hi.mean_latency(),
            lo.mean_latency()
        );
    }

    #[test]
    fn crossbar_bounds_vortex() {
        // The ideal output-queued crossbar lower-bounds any real switch
        // fabric of the same port latency; the torus is excluded from the
        // claim because its average hop distance (~2 on 4×4) can undercut
        // a 2-cycle port at light load.
        let rows = super::sweep(&[0.2], 5);
        assert!(rows[0].crossbar.mean_latency() <= rows[0].vortex.mean_latency());
        // All three deliver everything at this load.
        assert_eq!(rows[0].vortex.delivered, rows[0].vortex.injected);
        assert_eq!(rows[0].torus.delivered, rows[0].torus.injected);
    }
}
