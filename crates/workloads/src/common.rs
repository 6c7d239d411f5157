//! Shared workload helpers: deterministic RNG, line-granular touch
//! helpers, element addressing.

use active_threads::BatchCtx;
use locality_sim::VAddr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The E-cache line size all workloads use for line-granular touches.
pub const LINE: u64 = 64;

/// Creates the deterministic RNG every workload seeds from.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The engine nearly every unit test here runs on: the uniprocessor with
/// the default engine configuration.
#[cfg(test)]
pub(crate) fn ultra1_engine(policy: active_threads::SchedPolicy) -> active_threads::Engine {
    let machine = locality_sim::MachineConfig::ultra1();
    active_threads::Engine::new(machine, policy, Default::default()).unwrap()
}

/// The address of element `idx` in an array of `elem_bytes`-byte elements
/// starting at `base`.
pub fn elem_addr(base: VAddr, idx: u64, elem_bytes: u64) -> VAddr {
    base.offset(idx * elem_bytes)
}

/// Reads the cache line containing element `idx` (deduplicating against
/// the previously-touched line, which a real program keeps in registers).
#[derive(Debug, Clone, Copy, Default)]
pub struct LineToucher {
    last_line: Option<u64>,
}

impl LineToucher {
    /// Creates a toucher with no history.
    pub fn new() -> Self {
        LineToucher::default()
    }

    /// Forgets the last-touched line (e.g. at a batch boundary).
    pub fn reset(&mut self) {
        self.last_line = None;
    }

    /// Issues a read for `addr`'s line unless it is the line touched by
    /// the immediately preceding call.
    pub fn read(&mut self, ctx: &mut BatchCtx<'_>, addr: VAddr) {
        let line = addr.0 / LINE;
        if self.last_line != Some(line) {
            ctx.read(VAddr(line * LINE));
            self.last_line = Some(line);
        }
    }

    /// Issues a write for `addr`'s line unless it repeats the last line.
    pub fn write(&mut self, ctx: &mut BatchCtx<'_>, addr: VAddr) {
        let line = addr.0 / LINE;
        if self.last_line != Some(line) {
            ctx.write(VAddr(line * LINE));
            self.last_line = Some(line);
        }
    }

    /// Reads every line covering `[start, start+bytes)` as one batched
    /// run — byte-for-byte the accesses an ascending per-element
    /// [`read`](Self::read) sweep over the span would issue (the first
    /// line is deduplicated against the previous touch, later lines
    /// cannot repeat because the sweep ascends).
    pub fn read_span(&mut self, ctx: &mut BatchCtx<'_>, start: VAddr, bytes: u64) {
        if let Some((first, count, last)) = self.span_lines(start, bytes) {
            ctx.read_range(VAddr(first * LINE), count * LINE, LINE);
            self.last_line = Some(last);
        }
    }

    /// The `(first_line, count, last_line)` of the lines still to touch
    /// for a span, after deduplicating the leading line; `None` if the
    /// whole span collapses into the previously-touched line.
    fn span_lines(&self, start: VAddr, bytes: u64) -> Option<(u64, u64, u64)> {
        if bytes == 0 {
            return None;
        }
        let mut first = start.0 / LINE;
        let last = (start.0 + bytes - 1) / LINE;
        if self.last_line == Some(first) {
            if first == last {
                return None;
            }
            first += 1;
        }
        Some((first, last - first + 1, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(7);
        let mut b = rng(7);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = rng(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn elem_addressing() {
        let base = VAddr(0x1000);
        assert_eq!(elem_addr(base, 0, 8), VAddr(0x1000));
        assert_eq!(elem_addr(base, 3, 8), VAddr(0x1018));
    }
}
