//! The machine model.
//!
//! The paper evaluates on a 56-core Xeon E7-4830v4, 260 GB DRAM, a 4×1 TB
//! 10K-RPM HDD RAID-5 array, and an NVIDIA Quadro P6000. VStore's
//! configuration decisions only depend on a few aggregate figures of that
//! platform — transcoding bandwidth, decode bandwidth, disk bandwidth, core
//! count — so the machine model captures exactly those.

/// Aggregate hardware capabilities used by cost models and budget checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Number of physical CPU cores available to VStore.
    pub cpu_cores: u32,
    /// Cores the query executor may use (the paper limits ALPR to 40).
    pub query_cpu_cores: u32,
    /// Sequential disk read bandwidth in bytes per second.
    pub disk_read_bw: u64,
    /// Sequential disk write bandwidth in bytes per second.
    pub disk_write_bw: u64,
    /// Sustained decoder pixel throughput (pixels/second) for inter-coded
    /// frames at the richest quality; the coding cost model derives
    /// per-format decode speeds from this.
    pub decoder_pixel_rate: f64,
    /// Per-frame decoder overhead in seconds (bitstream parsing, setup).
    pub decoder_frame_overhead: f64,
    /// GPU inference throughput normaliser: work units per second, where one
    /// work unit is defined by the operator cost model.
    pub gpu_work_rate: f64,
    /// Per-core CPU work rate for CPU-bound operators, in work units/second.
    pub cpu_work_rate: f64,
}

impl MachineSpec {
    /// The paper's evaluation platform (§6.1).
    pub fn paper_testbed() -> Self {
        MachineSpec {
            cpu_cores: 56,
            query_cpu_cores: 40,
            // 4-disk RAID array: ~2 GB/s effective sequential read (consistent
            // with Table 3(b): RAW 200p at 1843 KB/s retrieved at ~1137×).
            disk_read_bw: 2_000_000_000,
            disk_write_bw: 1_000_000_000,
            // NVDEC-class decoder: ~1.2 Gpx/s on inter frames plus a fixed
            // per-frame overhead, which together reproduce the ~23× retrieval
            // speed of the golden 720p format.
            decoder_pixel_rate: 1.22e9,
            decoder_frame_overhead: 0.0007,
            gpu_work_rate: 1.0,
            cpu_work_rate: 1.0,
        }
    }

    /// A deliberately small machine for tests (fewer cores, slower disk).
    pub fn small() -> Self {
        MachineSpec {
            cpu_cores: 8,
            query_cpu_cores: 6,
            disk_read_bw: 200_000_000,
            disk_write_bw: 120_000_000,
            decoder_pixel_rate: 3.0e8,
            decoder_frame_overhead: 0.001,
            gpu_work_rate: 0.25,
            cpu_work_rate: 0.5,
        }
    }

    /// Transcoding bandwidth budget in CPU cores available to ingest one
    /// stream, given how many streams the machine ingests concurrently.
    pub fn ingest_cores_per_stream(&self, concurrent_streams: u32) -> f64 {
        if concurrent_streams == 0 {
            f64::from(self.cpu_cores)
        } else {
            f64::from(self.cpu_cores) / f64::from(concurrent_streams)
        }
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_figures() {
        let m = MachineSpec::paper_testbed();
        assert_eq!(m.cpu_cores, 56);
        assert_eq!(m.query_cpu_cores, 40);
        assert!(m.disk_read_bw >= 1_000_000_000);
    }

    #[test]
    fn ingest_cores_split() {
        let m = MachineSpec::paper_testbed();
        assert!((m.ingest_cores_per_stream(56) - 1.0).abs() < 1e-9);
        assert!((m.ingest_cores_per_stream(0) - 56.0).abs() < 1e-9);
        assert!(m.ingest_cores_per_stream(8) > m.ingest_cores_per_stream(16));
    }

    #[test]
    fn small_machine_is_weaker() {
        let small = MachineSpec::small();
        let big = MachineSpec::paper_testbed();
        assert!(small.cpu_cores < big.cpu_cores);
        assert!(small.disk_read_bw < big.disk_read_bw);
        assert!(small.decoder_pixel_rate < big.decoder_pixel_rate);
    }
}
