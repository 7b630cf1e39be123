//! SimNet: a deterministic analytic transport model turning frame sizes
//! into per-round transfer times.
//!
//! Each direction of a client link is a [`LinkSpec`]: bandwidth, one-way
//! latency, and an optional packet-loss probability. Loss is modelled in
//! expectation — with independent loss `p` and per-packet retransmission,
//! each packet costs `1/(1-p)` expected transmissions — so results are
//! reproducible without a second RNG stream in the simulation.
//!
//! A federated round downloads to every participant, waits for local
//! training, then uploads; participants work in parallel, so the round's
//! transfer wall-clock is the *maximum* over participants, while the
//! total traffic is the *sum*. The round engine (`spatl-fl`'s
//! `TransportStats::charge`) folds both from [`SimNet::client_time`].

/// One direction of a network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Usable bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds, paid once per transfer.
    pub latency_s: f64,
    /// Independent per-packet loss probability in `[0, 1)`.
    pub loss: f64,
}

impl LinkSpec {
    /// A symmetric broadband profile (100 Mbit/s, 20 ms, lossless).
    pub fn broadband() -> Self {
        LinkSpec {
            bandwidth_bps: 100e6,
            latency_s: 0.02,
            loss: 0.0,
        }
    }

    /// Expected seconds to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        assert!(self.bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!((0.0..1.0).contains(&self.loss), "loss must be in [0, 1)");
        if bytes == 0 {
            return 0.0;
        }
        let retransmit = 1.0 / (1.0 - self.loss);
        self.latency_s + (bytes as f64 * 8.0 / self.bandwidth_bps) * retransmit
    }
}

/// Transport model for one federated deployment: a downlink and an uplink
/// shared by every client (heterogeneity in *data* is the experiment
/// variable; links are held uniform so byte counts alone explain timing
/// differences between algorithms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimNet {
    /// Server→client direction.
    pub downlink: LinkSpec,
    /// Client→server direction.
    pub uplink: LinkSpec,
}

impl SimNet {
    /// Symmetric model from one link spec.
    pub fn symmetric(link: LinkSpec) -> Self {
        SimNet {
            downlink: link,
            uplink: link,
        }
    }

    /// Expected seconds for one client's download+upload.
    pub fn client_time(&self, download_bytes: usize, upload_bytes: usize) -> f64 {
        self.downlink.transfer_time(download_bytes) + self.uplink.transfer_time(upload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_time_is_latency_plus_serialisation() {
        let link = LinkSpec {
            bandwidth_bps: 8e6, // 1 MB/s
            latency_s: 0.5,
            loss: 0.0,
        };
        // 2 MB at 1 MB/s + 0.5 s latency = 2.5 s.
        let t = link.transfer_time(2_000_000);
        assert!((t - 2.5).abs() < 1e-9, "{t}");
        assert_eq!(link.transfer_time(0), 0.0);
    }

    #[test]
    fn loss_inflates_by_expected_retransmits() {
        let lossless = LinkSpec {
            bandwidth_bps: 1e6,
            latency_s: 0.0,
            loss: 0.0,
        };
        let lossy = LinkSpec {
            loss: 0.5,
            ..lossless
        };
        let bytes = 125_000; // 1 s at 1 Mbit/s
        assert!((lossless.transfer_time(bytes) - 1.0).abs() < 1e-9);
        // p = 0.5 → each packet sent twice in expectation.
        assert!((lossy.transfer_time(bytes) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn smaller_upload_is_strictly_faster() {
        // A constrained mobile link: 10 Mbit/s, 60 ms, 1 % loss.
        let net = SimNet::symmetric(LinkSpec {
            bandwidth_bps: 10e6,
            latency_s: 0.06,
            loss: 0.01,
        });
        let dense = net.client_time(100_000, 100_000);
        let sparse = net.client_time(100_000, 10_000);
        assert!(sparse < dense);
    }

    #[test]
    fn broadband_is_100_mbit_20_ms_lossless_both_ways() {
        let link = LinkSpec::broadband();
        // 12.5 MB is 1 s at 100 Mbit/s, plus the 20 ms latency.
        assert!((link.transfer_time(12_500_000) - 1.02).abs() < 1e-9);
        let net = SimNet::symmetric(link);
        assert_eq!(net.downlink, net.uplink);
        assert_eq!(net.client_time(1000, 0), net.client_time(0, 1000));
    }

    #[test]
    fn client_time_adds_the_two_directions() {
        let net = SimNet {
            downlink: LinkSpec {
                bandwidth_bps: 8e6,
                latency_s: 0.25,
                loss: 0.0,
            },
            uplink: LinkSpec {
                bandwidth_bps: 1e6,
                latency_s: 0.5,
                loss: 0.0,
            },
        };
        // 1 MB down at 1 MB/s, 125 kB up at 125 kB/s: 1.25 s + 1.5 s.
        let t = net.client_time(1_000_000, 125_000);
        assert!((t - 2.75).abs() < 1e-9, "{t}");
    }

    #[test]
    fn nothing_to_send_costs_nothing_even_on_a_lossy_link() {
        let lossy = LinkSpec {
            bandwidth_bps: 1e3,
            latency_s: 2.0,
            loss: 0.9,
        };
        assert_eq!(lossy.transfer_time(0), 0.0);
        assert_eq!(SimNet::symmetric(lossy).client_time(0, 0), 0.0);
    }
}
