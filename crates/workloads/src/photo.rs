//! *photo*: a softening filter over an RGB pixmap (paper Table 2 / §5):
//! "a separate thread is created to retouch each row of pixels. During
//! the course of computation, a thread accesses the states of several
//! neighbor rows. The annotations indicate that the closer the
//! corresponding row numbers, the more prefetched state is reused."
//!
//! The filter is a separable softening blend,
//! `out = (1−α)·in + α·vblur(hblur(in))`, with a *causal* vertical
//! window (rows `y−2r..y`), computed for real. Both blurs add whole byte
//! rows, a tap or a window row at a time, and divide by multiplying with
//! a reciprocal. The host keeps rows, not pixmaps: an input row is drawn
//! from the seeded stream at its H pass and dropped at its V pass, a
//! blur row is dropped after the last V pass whose window holds it, and
//! an output row is folded into its checksum as it is blended. The
//! simulated addresses still model all three whole images. Each row
//! thread runs in several scheduling intervals:
//!
//! 1. **H pass** — read its input row, horizontal box blur into its temp
//!    row, then post its row semaphore (once per dependent row below);
//! 2. **V pass** — wait for the semaphores of the window rows above,
//!    read their temp rows, re-read its own input row, blend, write the
//!    output row.
//!
//! The dependency structure is the real one for a causal separable
//! filter: producer/consumer semaphores, not a global barrier — so a
//! thread's V pass typically runs soon after its own H pass. It then
//! re-reads state the thread itself just produced, which is why even the
//! *counters-only* locality policies (no annotations) win by resuming
//! the thread where its temp and input rows are cached; the `at_share`
//! annotations additionally describe the neighbour-row overlap, which is
//! what groups adjacent rows onto one processor.

use crate::common::{rng, LINE};
use active_threads::{BatchCtx, Control, Engine, Program, SemId, ThreadId};
use locality_sim::VAddr;
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Parameters of a photo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhotoParams {
    /// Image width in pixels (paper: 2048).
    pub width: usize,
    /// Image height in pixels = number of row threads (paper: 2048).
    pub height: usize,
    /// Softening-filter radius in pixels (2 = a 5-wide box each way).
    pub filter_radius: usize,
    /// Annotation radius: rows within this distance get `at_share` edges.
    pub share_radius: usize,
    /// Seed for the synthetic input image.
    pub seed: u64,
}

impl Default for PhotoParams {
    fn default() -> Self {
        PhotoParams { width: 2048, height: 2048, filter_radius: 2, share_radius: 4, seed: 5 }
    }
}

impl PhotoParams {
    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        PhotoParams { width: 256, height: 64, filter_radius: 2, share_radius: 4, seed: 5 }
    }

    /// Bytes per RGB row.
    pub fn row_bytes(&self) -> u64 {
        (self.width as u64) * 3
    }
}

/// Blend weight of the blurred component (fixed-point /256).
const ALPHA_NUM: u32 = 160;

/// `m = ⌊2³²/d⌋ + 1`, so that `n / d = (n·m) >> 32` for a mean of `d`
/// bytes: exact whenever `n·d < 2³²`, and a sum of `d` bytes is at most
/// `255·d`, which keeps `n·d` in range for every `d ≤ 4096`.
fn reciprocal(d: usize) -> u64 {
    assert!((1..=4096).contains(&d), "a filter window of {d} pixels");
    (1u64 << 32) / d as u64 + 1
}

/// Writes each sum of `d` bytes divided by `d`, multiplying by its
/// [`reciprocal`] instead of dividing.
fn divide(out: &mut [u8], sums: &[u32], d: usize) {
    let m = reciprocal(d);
    for (out, &sum) in out.iter_mut().zip(sums) {
        *out = ((u64::from(sum) * m) >> 32) as u8;
    }
}

/// `acc·131 + byte` over `bytes`, from 0: the image checksum's fold. Four
/// lanes take every fourth byte, `131⁴` a step, and are joined at the end.
fn fold131(bytes: &[u8]) -> u64 {
    const STEP: u64 = 131 * 131 * 131 * 131;
    let chunks = bytes.chunks_exact(4);
    let tail = chunks.remainder();
    let mut lanes = [0u64; 4];
    for chunk in chunks {
        for (lane, &b) in lanes.iter_mut().zip(chunk) {
            *lane = lane.wrapping_mul(STEP).wrapping_add(u64::from(b));
        }
    }
    let head = lanes.iter().fold(0u64, |acc, &lane| acc.wrapping_mul(131).wrapping_add(lane));
    tail.iter().fold(head, |acc, &b| acc.wrapping_mul(131).wrapping_add(u64::from(b)))
}

/// One row's host state, each part live only while a pass still reads it.
#[derive(Debug, Default)]
struct RowSlot {
    /// The input row: drawn at the row's H pass, dropped at its V pass.
    input: Option<Vec<u8>>,
    /// The horizontal-blur row: from its H pass to its last reader.
    temp: Option<Vec<u8>>,
    /// V passes still to read `temp`.
    readers: usize,
    /// [`fold131`] of the output row (0 until its V pass).
    checksum: u64,
}

/// What tests read back: every output row, and the most input and blur
/// rows ever live at once.
#[cfg(test)]
#[derive(Debug, Default)]
struct Record {
    output: Vec<Vec<u8>>,
    peak_live: (usize, usize),
}

/// The image state shared by all row threads: one slot per row, nothing
/// the size of the whole image.
#[derive(Debug)]
pub struct PhotoShared {
    rows: RefCell<Vec<RowSlot>>,
    #[cfg(test)]
    record: RefCell<Record>,
    /// Simulated address of the input.
    pub in_base: VAddr,
    /// Simulated address of the intermediate.
    pub tmp_base: VAddr,
    /// Simulated address of the output.
    pub out_base: VAddr,
    /// Dimensions.
    pub params: PhotoParams,
}

impl PhotoShared {
    /// The shared state of a synthetic image, before any row is drawn.
    pub fn new(in_base: VAddr, tmp_base: VAddr, out_base: VAddr, params: PhotoParams) -> Rc<Self> {
        Rc::new(PhotoShared {
            rows: RefCell::new((0..params.height).map(|_| RowSlot::default()).collect()),
            #[cfg(test)]
            record: RefCell::new(Record {
                output: vec![Vec::new(); params.height],
                ..Record::default()
            }),
            in_base,
            tmp_base,
            out_base,
            params,
        })
    }

    fn row_addr(&self, base: VAddr, y: usize) -> VAddr {
        base.offset(y as u64 * self.params.row_bytes())
    }

    /// Input row `y`: the next `3W` bytes of the `rng(seed)` stream after
    /// the `y` rows above it, one draw a byte.
    fn input_row(&self, y: usize) -> Vec<u8> {
        let n = self.params.row_bytes();
        let mut r = rng(self.params.seed);
        r.advance(y as u64 * n);
        (0..n).map(|_| r.gen()).collect()
    }

    /// Horizontal box blur of row `y` into its temp row (real math): the
    /// mean of the pixels within `filter_radius` that exist. Each of the
    /// `2r + 1` taps is one pass adding the byte row, shifted by the tap,
    /// into one accumulator per byte; the interior pixels, whose window is
    /// whole, then share one reciprocal. Draws the input row and keeps it
    /// for the V pass.
    pub fn hblur_row(&self, y: usize) {
        let (w, r) = (self.params.width, self.params.filter_radius);
        let row = self.input_row(y);
        let mut out = vec![0u8; row.len()];
        let mut sums: Vec<u32> = row.iter().map(|&b| u32::from(b)).collect();
        for d in 1..=r.min(w.saturating_sub(1)) {
            // Pixel `x` gains pixel `x − d`, then pixel `x + d`.
            for (sum, &b) in sums[d * 3..].iter_mut().zip(&row) {
                *sum += u32::from(b);
            }
            for (sum, &b) in sums.iter_mut().zip(&row[d * 3..]) {
                *sum += u32::from(b);
            }
        }
        // Pixels `r..w − r` see all `2r + 1` taps; the rest are clipped.
        let lo = r.min(w);
        let hi = w.saturating_sub(r).max(lo);
        divide(&mut out[lo * 3..hi * 3], &sums[lo * 3..hi * 3], 2 * r + 1);
        for x in (0..lo).chain(hi..w) {
            let taps = (x + r).min(w - 1) + 1 - x.saturating_sub(r);
            divide(&mut out[x * 3..x * 3 + 3], &sums[x * 3..x * 3 + 3], taps);
        }
        // Row `y` is in the windows of rows `y..=y + 2r` that exist.
        let readers = (y + 2 * r).min(self.params.height - 1) + 1 - y;
        self.rows.borrow_mut()[y] =
            RowSlot { input: Some(row), temp: Some(out), readers, checksum: 0 };
    }

    /// Causal vertical blur over the temp rows (window `y−2r..y`) plus
    /// the softening blend with the original row, folded into row `y`'s
    /// checksum. The window is summed a row at a time into one accumulator
    /// per byte. Drops the input row and every blur row read for the last
    /// time.
    pub fn vblend_row(&self, y: usize) {
        let lo = y.saturating_sub(2 * self.params.filter_radius);
        #[cfg(test)]
        self.note_live();
        let mut rows = self.rows.borrow_mut();
        let mut sums = vec![0u32; self.params.width * 3];
        for slot in &rows[lo..=y] {
            let temp = slot.temp.as_ref().expect("a window row is blurred before its readers");
            for (sum, &t) in sums.iter_mut().zip(temp) {
                *sum += u32::from(t);
            }
        }
        let mut out = vec![0u8; sums.len()];
        divide(&mut out, &sums, y - lo + 1);
        let input = rows[y].input.take().expect("a row is drawn at its H pass");
        for (out, &orig) in out.iter_mut().zip(&input) {
            let v = ((256 - ALPHA_NUM) * u32::from(orig) + ALPHA_NUM * u32::from(*out)) / 256;
            *out = v as u8;
        }
        rows[y].checksum = fold131(&out);
        for slot in &mut rows[lo..=y] {
            slot.readers -= 1;
            if slot.readers == 0 {
                slot.temp = None;
            }
        }
        #[cfg(test)]
        {
            self.record.borrow_mut().output[y] = out;
        }
    }

    /// Checksum of the whole output, `acc·131 + byte` over its bytes in
    /// row-major order: the per-row folds chained by `131^(3W)`.
    pub fn output_checksum(&self) -> u64 {
        let n = u32::try_from(self.params.row_bytes()).expect("a row under 4 GiB");
        let shift = 131u64.wrapping_pow(n);
        self.rows.borrow().iter().fold(0, |acc, s| acc.wrapping_mul(shift).wrapping_add(s.checksum))
    }

    /// The (input, blur) rows live now.
    #[cfg(test)]
    fn live_rows(&self) -> (usize, usize) {
        let rows = self.rows.borrow();
        let count = |f: fn(&RowSlot) -> bool| rows.iter().filter(|s| f(s)).count();
        (count(|s| s.input.is_some()), count(|s| s.temp.is_some()))
    }

    /// Raises the recorded peak to what is live at a V pass's start: rows
    /// are only dropped by V passes, so every peak is seen there.
    #[cfg(test)]
    fn note_live(&self) {
        let (input, temp) = self.live_rows();
        let peak = &mut self.record.borrow_mut().peak_live;
        *peak = (peak.0.max(input), peak.1.max(temp));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowPhase {
    /// The H pass itself.
    HPass,
    /// Posting this row's semaphore for each dependent row below.
    Post { left: usize },
    /// Waiting for the window rows above (their H passes).
    Wait { row_above: usize },
    /// The V pass.
    VPass,
}

/// One row thread: H pass, semaphore handshakes, V pass (module docs).
pub struct RowThread {
    shared: Rc<PhotoShared>,
    /// One semaphore per row, posted when that row's H pass is done.
    sems: Rc<Vec<SemId>>,
    y: usize,
    phase: RowPhase,
}

impl RowThread {
    fn window_lo(&self) -> usize {
        self.y.saturating_sub(2 * self.shared.params.filter_radius)
    }

    fn dependents_below(&self) -> usize {
        let p = self.shared.params;
        (p.height - 1 - self.y).min(2 * p.filter_radius)
    }
}

impl Program for RowThread {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let shared = self.shared.clone();
        let p = shared.params;
        let row_bytes = p.row_bytes();
        let y = self.y;
        match self.phase {
            RowPhase::HPass => {
                // H pass: input row -> temp row.
                ctx.read_range(shared.row_addr(shared.in_base, y), row_bytes, LINE);
                shared.hblur_row(y);
                ctx.write_range(shared.row_addr(shared.tmp_base, y), row_bytes, LINE);
                ctx.compute((p.width as u64) * 3 * 3);
                self.phase = RowPhase::Post { left: self.dependents_below() };
                Control::Yield
            }
            RowPhase::Post { left } => {
                if left > 0 {
                    self.phase = RowPhase::Post { left: left - 1 };
                    return Control::SemPost(self.sems[y]);
                }
                self.phase = RowPhase::Wait { row_above: self.window_lo() };
                Control::Yield
            }
            RowPhase::Wait { row_above } => {
                if row_above < y {
                    self.phase = RowPhase::Wait { row_above: row_above + 1 };
                    return Control::SemWait(self.sems[row_above]);
                }
                self.phase = RowPhase::VPass;
                Control::Yield
            }
            RowPhase::VPass => {
                // V pass: window temp rows + own input row -> output.
                for ry in self.window_lo()..=y {
                    ctx.read_range(shared.row_addr(shared.tmp_base, ry), row_bytes, LINE);
                }
                ctx.read_range(shared.row_addr(shared.in_base, y), row_bytes, LINE);
                shared.vblend_row(y);
                ctx.write_range(shared.row_addr(shared.out_base, y), row_bytes, LINE);
                ctx.compute((p.width as u64) * 3 * 4);
                Control::Exit
            }
        }
    }
}

/// Registers the ground-truth state regions of row thread `y`.
fn register_row_regions(engine: &mut Engine, tid: ThreadId, shared: &PhotoShared, y: usize) {
    let p = shared.params;
    let row_bytes = p.row_bytes();
    let lo = y.saturating_sub(2 * p.filter_radius);
    let m = engine.machine_mut();
    m.register_region(tid, shared.row_addr(shared.in_base, y), row_bytes);
    m.register_region(tid, shared.row_addr(shared.tmp_base, lo), ((y - lo + 1) as u64) * row_bytes);
    m.register_region(tid, shared.row_addr(shared.out_base, y), row_bytes);
}

/// Spawns one thread per row with neighbour-sharing annotations derived
/// from the exact region overlaps. Returns `(shared, tids)`.
/// (The annotation ablation runs this same program under a policy that
/// ignores annotations.)
pub fn spawn_parallel(
    engine: &mut Engine,
    params: &PhotoParams,
) -> (Rc<PhotoShared>, Vec<ThreadId>) {
    let bytes = params.row_bytes() * params.height as u64;
    let in_base = engine.machine_mut().alloc(bytes, LINE);
    let tmp_base = engine.machine_mut().alloc(bytes, LINE);
    let out_base = engine.machine_mut().alloc(bytes, LINE);
    let shared = PhotoShared::new(in_base, tmp_base, out_base, *params);
    let sems: Rc<Vec<SemId>> =
        Rc::new((0..params.height).map(|_| engine.sync_tables_mut().create_semaphore(0)).collect());
    let mut tids = Vec::with_capacity(params.height);
    for y in 0..params.height {
        let tid = engine.spawn(Box::new(RowThread {
            shared: shared.clone(),
            sems: sems.clone(),
            y,
            phase: RowPhase::HPass,
        }));
        register_row_regions(engine, tid, &shared, y);
        tids.push(tid);
    }
    // Annotations: the closer the rows, the more state is shared; the
    // coefficients come from the exact region overlaps (what a fully
    // informed programmer would write).
    for y in 0..params.height {
        for d in 1..=params.share_radius {
            if y + d < params.height {
                let q = engine.machine().regions().coefficient(tids[y], tids[y + d]);
                let q_rev = engine.machine().regions().coefficient(tids[y + d], tids[y]);
                let _ = engine.annotate(tids[y], tids[y + d], q);
                let _ = engine.annotate(tids[y + d], tids[y], q_rev);
            }
        }
    }
    (shared, tids)
}

/// The Figure 5 monitored work thread: filters all rows by itself
/// (H pass then V pass per row), yielding between rows for sampling.
pub struct PhotoWorker {
    shared: Rc<PhotoShared>,
    next_row: usize,
    hblurred: usize,
}

impl Program for PhotoWorker {
    fn next_batch(&mut self, ctx: &mut BatchCtx<'_>) -> Control {
        let p = self.shared.params;
        if self.next_row >= p.height {
            return Control::Exit;
        }
        let y = self.next_row;
        self.next_row += 1;
        let row_bytes = p.row_bytes();
        let lo = y.saturating_sub(2 * p.filter_radius);
        ctx.register_region(self.shared.row_addr(self.shared.in_base, y), row_bytes);
        ctx.register_region(
            self.shared.row_addr(self.shared.tmp_base, lo),
            ((y - lo + 1) as u64) * row_bytes,
        );
        ctx.register_region(self.shared.row_addr(self.shared.out_base, y), row_bytes);
        // H-blur the rows the causal window needs that are not done yet.
        while self.hblurred <= y {
            let ry = self.hblurred;
            ctx.read_range(self.shared.row_addr(self.shared.in_base, ry), row_bytes, LINE);
            self.shared.hblur_row(ry);
            ctx.write_range(self.shared.row_addr(self.shared.tmp_base, ry), row_bytes, LINE);
            self.hblurred += 1;
        }
        for ry in lo..=y {
            ctx.read_range(self.shared.row_addr(self.shared.tmp_base, ry), row_bytes, LINE);
        }
        ctx.read_range(self.shared.row_addr(self.shared.in_base, y), row_bytes, LINE);
        self.shared.vblend_row(y);
        ctx.write_range(self.shared.row_addr(self.shared.out_base, y), row_bytes, LINE);
        ctx.compute((p.width as u64) * 3 * 7);
        Control::Yield
    }
}

/// Spawns the monitored single worker.
pub fn spawn_single(engine: &mut Engine, params: &PhotoParams) -> ThreadId {
    let bytes = params.row_bytes() * params.height as u64;
    let in_base = engine.machine_mut().alloc(bytes, LINE);
    let tmp_base = engine.machine_mut().alloc(bytes, LINE);
    let out_base = engine.machine_mut().alloc(bytes, LINE);
    let shared = PhotoShared::new(in_base, tmp_base, out_base, *params);
    engine.spawn(Box::new(PhotoWorker { shared, next_row: 0, hblurred: 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ultra1_engine;
    use active_threads::{EngineConfig, SchedPolicy};
    use locality_sim::MachineConfig;

    fn run(
        cpus: usize,
        policy: SchedPolicy,
        params: &PhotoParams,
    ) -> (active_threads::RunReport, Rc<PhotoShared>) {
        let config =
            if cpus == 1 { MachineConfig::ultra1() } else { MachineConfig::enterprise5000(cpus) };
        let mut e = active_threads::Engine::new(config, policy, EngineConfig::default()).unwrap();
        let (shared, _) = spawn_parallel(&mut e, params);
        (e.run().unwrap(), shared)
    }

    /// The whole input image, drawn from the seeded stream in one go.
    fn input_image(p: &PhotoParams) -> Vec<u8> {
        let mut r = rng(p.seed);
        (0..p.row_bytes() * p.height as u64).map(|_| r.gen()).collect()
    }

    /// The whole output image, as the V passes blended it.
    fn output_image(shared: &PhotoShared) -> Vec<u8> {
        shared.record.borrow().output.concat()
    }

    /// The whole image filtered row by row, outside any engine.
    fn filtered(params: PhotoParams) -> Rc<PhotoShared> {
        let shared = PhotoShared::new(VAddr(0x10000), VAddr(0x20000000), VAddr(0x40000000), params);
        for y in 0..params.height {
            shared.hblur_row(y);
        }
        for y in 0..params.height {
            shared.vblend_row(y);
        }
        shared
    }

    /// Every schedule filters the same image and leaves no row slot live.
    #[test]
    fn filter_output_is_policy_independent() {
        let params = PhotoParams::small();
        let sum = filtered(params).output_checksum();
        assert_ne!(sum, 0);
        for cpus in [1, 2, 4, 8] {
            for policy in [SchedPolicy::Fcfs, SchedPolicy::Lff, SchedPolicy::Crt] {
                let (_, shared) = run(cpus, policy, &params);
                assert_eq!(shared.output_checksum(), sum, "{policy:?} on {cpus} cpus");
                assert_eq!(shared.live_rows(), (0, 0), "{policy:?} on {cpus} cpus");
            }
        }
    }

    /// The filter as its definition reads, every tap re-added for every
    /// byte and divided by its count: the oracle the row passes are held to.
    fn direct_filter(p: &PhotoParams, input: &[u8]) -> Vec<u8> {
        let (w, r) = (p.width, p.filter_radius as i64);
        let at = |x: usize, y: usize, c: usize| (y * w + x) * 3 + c;
        let mut temp = vec![0u8; input.len()];
        let mut output = vec![0u8; input.len()];
        for y in 0..p.height {
            for x in 0..w {
                for c in 0..3 {
                    let taps: Vec<u32> = (-r..=r)
                        .map(|dx| x as i64 + dx)
                        .filter(|&nx| nx >= 0 && nx < w as i64)
                        .map(|nx| input[at(nx as usize, y, c)] as u32)
                        .collect();
                    temp[at(x, y, c)] = (taps.iter().sum::<u32>() / taps.len() as u32) as u8;
                }
            }
        }
        for y in 0..p.height {
            for x in 0..w {
                for c in 0..3 {
                    let taps: Vec<u32> = (-2 * r..=0)
                        .map(|dy| y as i64 + dy)
                        .filter(|&ny| ny >= 0)
                        .map(|ny| temp[at(x, ny as usize, c)] as u32)
                        .collect();
                    let blur = taps.iter().sum::<u32>() / taps.len() as u32;
                    let orig = input[at(x, y, c)] as u32;
                    output[at(x, y, c)] =
                        (((256 - ALPHA_NUM) * orig + ALPHA_NUM * blur) / 256) as u8;
                }
            }
        }
        output
    }

    #[test]
    fn filter_matches_direct_computation() {
        // Radii 0 to 3, each at widths below, at and above its window, and
        // at a height whose first rows see a clipped vertical window.
        let mut cases = vec![PhotoParams::small()];
        for r in 0..=3 {
            for width in [1, 2 * r, 2 * r + 1, 2 * r + 2, 37] {
                let (width, height) = (width.max(1), 2 * r + 3);
                cases.push(PhotoParams {
                    width,
                    height,
                    filter_radius: r,
                    share_radius: 4,
                    seed: 9,
                });
            }
        }
        for params in cases {
            let shared = filtered(params);
            let direct = direct_filter(&params, &input_image(&params));
            assert_eq!(output_image(&shared), direct, "{params:?}");
            let ran = run(1, SchedPolicy::Fcfs, &params).1;
            assert_eq!(output_image(&ran), direct, "{params:?}");
            assert_eq!(ran.output_checksum(), shared.output_checksum(), "{params:?}");
        }
    }

    #[test]
    fn input_rows_are_the_seeded_stream() {
        for params in [PhotoParams::small(), PhotoParams { height: 6, ..PhotoParams::default() }] {
            let shared = PhotoShared::new(VAddr(0), VAddr(0), VAddr(0), params);
            let rows: Vec<u8> = (0..params.height).flat_map(|y| shared.input_row(y)).collect();
            assert_eq!(rows, input_image(&params), "{params:?}");
        }
    }

    #[test]
    fn row_checksums_chain_to_the_image_fold() {
        let fold = |bytes: &[u8]| {
            bytes.iter().fold(0u64, |acc, &b| acc.wrapping_mul(131).wrapping_add(u64::from(b)))
        };
        let bytes: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(97) ^ 0x5a).collect();
        for n in 0..=bytes.len() {
            assert_eq!(fold131(&bytes[..n]), fold(&bytes[..n]), "{n} bytes");
        }
        for width in [1, 2, 3, 4, 37] {
            let params = PhotoParams { width, height: 7, ..PhotoParams::small() };
            let shared = filtered(params);
            assert_eq!(shared.output_checksum(), fold(&output_image(&shared)), "{params:?}");
        }
    }

    #[test]
    fn monitored_worker_holds_one_window_of_rows() {
        for r in 0..=3 {
            let params = PhotoParams { filter_radius: r, ..PhotoParams::small() };
            let shared =
                PhotoShared::new(VAddr(0x10000), VAddr(0x20000000), VAddr(0x40000000), params);
            let mut e = ultra1_engine(SchedPolicy::Fcfs);
            e.spawn(Box::new(PhotoWorker { shared: shared.clone(), next_row: 0, hblurred: 0 }));
            e.run().unwrap();
            assert_eq!(shared.record.borrow().peak_live, (1, 2 * r + 1), "radius {r}");
            assert_eq!(shared.live_rows(), (0, 0), "radius {r}");
            assert_eq!(output_image(&shared), direct_filter(&params, &input_image(&params)));
        }
    }

    #[test]
    fn reciprocal_divides_every_window_sum_exactly() {
        // Every sum of every window of a radius up to 3.
        for d in 1..=7 {
            for n in 0..=255 * d as u64 {
                assert_eq!((n * reciprocal(d)) >> 32, n / d as u64, "{n} / {d}");
            }
        }
        // Every window the assert admits, at the sums just below each
        // multiple of `d` and at `255·d`: the product never rounds below
        // the quotient and grows with `n`, so it would pass the next
        // multiple first at those sums.
        for d in 1..=4096u64 {
            for n in (1..=255).map(|k| k * d - 1).chain([255 * d]) {
                assert_eq!((n * reciprocal(d as usize)) >> 32, n / d, "{n} / {d}");
            }
        }
    }

    /// No CSV prints photo's pixels, so its output is pinned here: the
    /// checksum of the paper's row width on eight cpus.
    #[test]
    fn paper_width_output_is_pinned() {
        let params = PhotoParams { height: 128, ..PhotoParams::default() };
        assert_eq!(run(8, SchedPolicy::Lff, &params).1.output_checksum(), 0xf76b_6e2a_0e37_1c63);
    }

    /// The paper-size image against its pinned checksum and the direct
    /// definition. Seconds in release, where `ci.sh` runs it.
    #[test]
    #[ignore]
    fn paper_size_filter_matches_direct_computation() {
        let params = PhotoParams::default();
        let (_, shared) = run(8, SchedPolicy::Lff, &params);
        assert_eq!(shared.output_checksum(), 0x39e3_906e_5685_6d5d);
        assert_eq!(output_image(&shared), direct_filter(&params, &input_image(&params)));
    }

    #[test]
    fn softening_reduces_contrast() {
        // The blend must pull pixel values toward the local mean: the
        // output's total variation along x is smaller than the input's.
        let params = PhotoParams::small();
        let shared = filtered(params);
        let tv = |buf: &[u8]| -> u64 {
            let w = params.width * 3;
            buf.chunks(w)
                .map(|row| {
                    row.windows(2).map(|p| (p[0] as i64 - p[1] as i64).unsigned_abs()).sum::<u64>()
                })
                .sum()
        };
        let tv_in = tv(&input_image(&params));
        let tv_out = tv(&output_image(&shared));
        assert!(tv_out < tv_in / 2, "softening must smooth: {tv_in} -> {tv_out}");
    }

    #[test]
    fn neighbour_annotations_have_falling_coefficients() {
        let mut e = ultra1_engine(SchedPolicy::Lff);
        let (_, tids) = spawn_parallel(&mut e, &PhotoParams::small());
        let g = e.graph();
        let q1 = g.weight(tids[10], tids[11]);
        let q2 = g.weight(tids[10], tids[12]);
        let q4 = g.weight(tids[10], tids[14]);
        assert!(q1 > q2 && q2 > q4, "closer rows share more: {q1} {q2} {q4}");
        assert!(q4 > 0.0);
        assert!(g.weight(tids[10], tids[15]) == 0.0, "outside the radius");
    }

    #[test]
    fn smp_locality_policy_helps() {
        let params =
            PhotoParams { width: 1024, height: 128, filter_radius: 2, share_radius: 4, seed: 5 };
        let (fcfs, _) = run(8, SchedPolicy::Fcfs, &params);
        let (lff, _) = run(8, SchedPolicy::Lff, &params);
        let eliminated = lff.misses_eliminated_vs(&fcfs);
        assert!(
            eliminated > 0.2,
            "expected significant miss elimination on 8 cpus, got {:.1}%",
            eliminated * 100.0
        );
    }

    #[test]
    fn counters_alone_also_help_on_smp() {
        // The paper's §5 ablation: annotation-free LFF still recovers part
        // of the win through within-thread affinity (the V pass re-reads
        // the thread's own H-pass output).
        let params =
            PhotoParams { width: 1024, height: 128, filter_radius: 2, share_radius: 4, seed: 5 };
        let (fcfs, _) = run(8, SchedPolicy::Fcfs, &params);
        let (noann, _) = run(8, SchedPolicy::LffNoAnnotations, &params);
        let eliminated = noann.misses_eliminated_vs(&fcfs);
        assert!(
            eliminated > 0.05,
            "counters-only LFF should still eliminate misses, got {:.1}%",
            eliminated * 100.0
        );
    }

    #[test]
    fn single_worker_completes() {
        let mut e = ultra1_engine(SchedPolicy::Fcfs);
        spawn_single(&mut e, &PhotoParams::small());
        let report = e.run().unwrap();
        assert_eq!(report.threads_completed, 1);
        assert!(report.context_switches as usize >= PhotoParams::small().height);
    }
}
