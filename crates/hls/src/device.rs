//! FPGA device specifications and resource accounting.

use std::fmt;

/// Resources available on (or consumed from) an FPGA device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// DSP48 slices.
    pub dsp: u64,
    /// Flip-flops.
    pub ff: u64,
    /// Look-up tables.
    pub lut: u64,
    /// 18Kb block-RAM units.
    pub bram18k: u64,
}

impl ResourceUsage {
    /// Zero usage.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Element-wise sum (spatial composition: both circuits exist).
    pub fn plus(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            dsp: self.dsp + other.dsp,
            ff: self.ff + other.ff,
            lut: self.lut + other.lut,
            bram18k: self.bram18k + other.bram18k,
        }
    }

    /// Element-wise max (temporal composition with resource reuse: the
    /// circuits run at different times and share hardware).
    pub fn max(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            dsp: self.dsp.max(other.dsp),
            ff: self.ff.max(other.ff),
            lut: self.lut.max(other.lut),
            bram18k: self.bram18k.max(other.bram18k),
        }
    }

    /// Multiplies compute resources by a replication factor (unrolling).
    pub fn scaled(&self, factor: u64) -> ResourceUsage {
        ResourceUsage {
            dsp: self.dsp * factor,
            ff: self.ff * factor,
            lut: self.lut * factor,
            bram18k: self.bram18k,
        }
    }

    /// True when every figure is within `other`'s — the equal-envelope
    /// comparison of the dataflow DSE refinement, which may only trade
    /// resources between stages, never grow the winner's total.
    pub fn within(&self, other: &ResourceUsage) -> bool {
        self.dsp <= other.dsp
            && self.ff <= other.ff
            && self.lut <= other.lut
            && self.bram18k <= other.bram18k
    }

    /// True when the compute fabric (DSP/FF/LUT) fits `device` — the DSE's
    /// resource exit test. BRAM is deliberately left out: the search lets
    /// partitioning overshoot it (the muxing cost surfaces in FF/LUT) and
    /// POM003 reports the overshoot downstream.
    pub fn fits_logic(&self, device: &DeviceSpec) -> bool {
        self.dsp <= device.dsp && self.ff <= device.ff && self.lut <= device.lut
    }

    /// True when usage fits within `device` (BRAM included).
    pub fn fits(&self, device: &DeviceSpec) -> bool {
        self.dsp <= device.dsp
            && self.ff <= device.ff
            && self.lut <= device.lut
            && self.bram18k <= device.bram18k
    }

    /// Utilization percentages `(dsp, ff, lut, bram)` against a device.
    pub fn utilization(&self, device: &DeviceSpec) -> (f64, f64, f64, f64) {
        (
            100.0 * self.dsp as f64 / device.dsp as f64,
            100.0 * self.ff as f64 / device.ff as f64,
            100.0 * self.lut as f64 / device.lut as f64,
            100.0 * self.bram18k as f64 / device.bram18k as f64,
        )
    }
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DSP={} FF={} LUT={} BRAM18K={}",
            self.dsp, self.ff, self.lut, self.bram18k
        )
    }
}

/// An FPGA device envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Device name.
    pub name: String,
    /// DSP48 slices.
    pub dsp: u64,
    /// Flip-flops.
    pub ff: u64,
    /// Look-up tables.
    pub lut: u64,
    /// 18Kb BRAM units.
    pub bram18k: u64,
    /// Target clock period in nanoseconds.
    pub clock_ns: f64,
}

impl DeviceSpec {
    /// The paper's target: Xilinx XC7Z020 (220 DSPs, 53,200 LUTs, 106,400
    /// FFs, 4.9 Mb of memory) at a 10 ns target clock (100 MHz).
    pub fn xc7z020() -> Self {
        DeviceSpec {
            name: "xc7z020".into(),
            dsp: 220,
            ff: 106_400,
            lut: 53_200,
            bram18k: 280, // 280 x 18Kb = 5,040 Kb ≈ 4.9 Mb
            clock_ns: 10.0,
        }
    }

    /// A copy of the device scaled to a percentage of its resources —
    /// used by the resource-constraint sweep of Fig. 11.
    pub fn scaled_to(&self, percent: u64) -> DeviceSpec {
        DeviceSpec {
            name: format!("{}@{percent}%", self.name),
            dsp: self.dsp * percent / 100,
            ff: self.ff * percent / 100,
            lut: self.lut * percent / 100,
            bram18k: self.bram18k * percent / 100,
            clock_ns: self.clock_ns,
        }
    }

    /// Frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        1000.0 / self.clock_ns
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (DSP {}, FF {}, LUT {}, BRAM18K {}, {:.0} MHz)",
            self.name,
            self.dsp,
            self.ff,
            self.lut,
            self.bram18k,
            self.freq_mhz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xc7z020_matches_paper() {
        let d = DeviceSpec::xc7z020();
        assert_eq!(d.dsp, 220);
        assert_eq!(d.lut, 53_200);
        assert_eq!(d.ff, 106_400);
        assert!((d.freq_mhz() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn composition_semantics() {
        let a = ResourceUsage {
            dsp: 10,
            ff: 100,
            lut: 200,
            bram18k: 2,
        };
        let b = ResourceUsage {
            dsp: 4,
            ff: 300,
            lut: 100,
            bram18k: 1,
        };
        let sum = a.plus(&b);
        assert_eq!((sum.dsp, sum.ff, sum.lut, sum.bram18k), (14, 400, 300, 3));
        let mx = a.max(&b);
        assert_eq!((mx.dsp, mx.ff, mx.lut, mx.bram18k), (10, 300, 200, 2));
    }

    #[test]
    fn scaling_replicates_compute_not_memory() {
        let a = ResourceUsage {
            dsp: 3,
            ff: 10,
            lut: 20,
            bram18k: 5,
        };
        let s = a.scaled(4);
        assert_eq!((s.dsp, s.ff, s.lut), (12, 40, 80));
        assert_eq!(s.bram18k, 5, "memory is not replicated by unrolling");
    }

    #[test]
    fn fits_and_utilization() {
        let d = DeviceSpec::xc7z020();
        let u = ResourceUsage {
            dsp: 220,
            ff: 0,
            lut: 0,
            bram18k: 0,
        };
        assert!(u.fits(&d));
        let over = ResourceUsage {
            dsp: 221,
            ..ResourceUsage::zero()
        };
        assert!(!over.fits(&d));
        let (dsp_pct, _, _, _) = u.utilization(&d);
        assert!((dsp_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn constraint_scaling() {
        let d = DeviceSpec::xc7z020().scaled_to(50);
        assert_eq!(d.dsp, 110);
        assert_eq!(d.lut, 26_600);
    }
}
