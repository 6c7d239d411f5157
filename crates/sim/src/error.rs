use std::error::Error;
use std::fmt;

/// Errors raised by simulator configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A cache geometry parameter was zero or not a power of two, or the
    /// sizes were inconsistent (e.g. line larger than the cache).
    BadGeometry {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The machine was configured with zero processors.
    NoCpus,
    /// A latency or the TLB walk cost was over
    /// [`CacheLatencies::MAX_CYCLES`](crate::config::CacheLatencies::MAX_CYCLES).
    BadLatency {
        /// The configuration field.
        name: &'static str,
        /// The rejected cost in cycles.
        cycles: u64,
    },
    /// A processor index was out of range.
    BadCpu {
        /// The rejected index.
        cpu: usize,
        /// The number of processors configured.
        cpus: usize,
    },
    /// A performance-counter read trapped: an injected
    /// [`TrapOnRead`](crate::faults::FaultKind::TrapOnRead) fault is live,
    /// modelling a user-level `rd %pic` that faults into the kernel. The
    /// interval is *not* reset — counts keep
    /// accumulating until a read succeeds.
    CounterTrap {
        /// The processor whose read trapped.
        cpu: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadGeometry { reason } => write!(f, "invalid cache geometry: {reason}"),
            SimError::NoCpus => write!(f, "machine must have at least one processor"),
            SimError::BadLatency { name, cycles } => {
                let max = crate::config::CacheLatencies::MAX_CYCLES;
                write!(f, "latency {name} = {cycles} cycles is over the cap of {max}")
            }
            SimError::BadCpu { cpu, cpus } => {
                write!(f, "processor index {cpu} out of range (machine has {cpus})")
            }
            SimError::CounterTrap { cpu } => {
                write!(f, "performance-counter read trapped on cpu {cpu}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SimError::NoCpus.to_string().contains("at least one"));
        let e = SimError::BadLatency { name: "l2_miss", cycles: 7 << 20 };
        assert!(e.to_string().contains("l2_miss = 7340032 cycles"));
        assert!(SimError::BadCpu { cpu: 9, cpus: 8 }.to_string().contains('9'));
        assert!(SimError::CounterTrap { cpu: 3 }.to_string().contains("trapped on cpu 3"));
        let e = SimError::BadGeometry { reason: "line of 0 bytes".into() };
        assert!(e.to_string().contains("line of 0 bytes"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}
