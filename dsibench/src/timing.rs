//! The timed region: steps (epochs or days) run back to back in blocks, and
//! each rate is reported as the median over blocks, so that a burst of
//! interference from the host spoils a block and not the run.

use crate::host;
use crate::stats::median;

/// Blocks a timed region is divided into.
pub const BLOCKS: usize = 8;

/// What one step (one epoch, one day) contributed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    pub samples: u64,
    /// Wall seconds of the step's timed part.
    pub wall_s: f64,
    /// Process CPU seconds over the same part.
    pub cpu_s: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Block {
    pub samples: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak resident set while the block ran (the peak is reset at every
    /// block start where the kernel allows it).
    pub peak_rss_mib: f64,
}

/// Times `f`: its wall and process CPU seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu_before = host::process_cpu_seconds();
    let start = std::time::Instant::now();
    let result = f();
    let wall_s = start.elapsed().as_secs_f64();
    (result, wall_s, host::process_cpu_seconds() - cpu_before)
}

/// Sets up `repeats` times, each result dropped before the next is built;
/// returns the last one and the median set-up time in seconds.
pub fn set_up<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut built = None;
    for _ in 0..repeats.max(1) {
        drop(built.take());
        let start = std::time::Instant::now();
        built = Some(build());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up ran"), median(&seconds))
}

/// Runs whole steps until their timed parts add up to `seconds`, closing a
/// block whenever it holds an eighth of that. At least one step runs.
pub fn run_blocks(seconds: f64, mut step: impl FnMut() -> Step) -> Vec<Block> {
    let block_s = seconds / BLOCKS as f64;
    let mut blocks = Vec::new();
    let mut total_s = 0.0;
    loop {
        host::reset_peak_rss();
        let mut block = Block::default();
        loop {
            let s = step();
            block.samples += s.samples;
            block.wall_s += s.wall_s;
            block.cpu_s += s.cpu_s;
            if block.wall_s >= block_s {
                break;
            }
        }
        block.peak_rss_mib = host::peak_rss_mib();
        total_s += block.wall_s;
        blocks.push(block);
        if total_s >= seconds {
            return blocks;
        }
    }
}

/// The end-to-end rates of a timed region, each the median over blocks.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    pub samples_per_s: f64,
    pub cpu_s_per_msample: f64,
    pub peak_rss_mib: f64,
    pub samples: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn rates(blocks: &[Block]) -> Rates {
    let over = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    Rates {
        samples_per_s: over(&|b| b.samples as f64 / b.wall_s),
        cpu_s_per_msample: over(&|b| b.cpu_s / (b.samples as f64 / 1e6)),
        peak_rss_mib: over(&|b| b.peak_rss_mib),
        samples: blocks.iter().map(|b| b.samples).sum(),
        wall_s: blocks.iter().map(|b| b.wall_s).sum(),
        cpu_s: blocks.iter().map(|b| b.cpu_s).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_hold_whole_steps_and_cover_the_asked_time() {
        let mut steps = 0;
        let blocks = run_blocks(8.0, || {
            steps += 1;
            Step {
                samples: 10,
                wall_s: 0.75,
                cpu_s: 1.0,
            }
        });
        // Two steps of 0.75 s close a 1 s block; 1.5 s blocks reach 8 s at the sixth.
        assert_eq!(blocks.len(), 6);
        assert_eq!(steps, 12);
        assert!(blocks.iter().all(|b| b.samples == 20 && b.wall_s == 1.5));

        let one = run_blocks(0.0, || Step {
            samples: 1,
            wall_s: 0.1,
            cpu_s: 0.1,
        });
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn set_up_keeps_the_last_build_and_never_two_at_once() {
        use std::cell::Cell;
        struct Built<'a>(&'a Cell<u32>, u32);
        impl Drop for Built<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let alive = Cell::new(0);
        let mut n = 0;
        let (last, seconds) = set_up(3, || {
            assert_eq!(alive.get(), 0, "the previous build is still alive");
            alive.set(1);
            n += 1;
            Built(&alive, n)
        });
        assert_eq!(last.1, 3);
        assert!(seconds >= 0.0);
    }

    #[test]
    fn rates_are_medians_over_blocks() {
        let block = |samples, wall_s, cpu_s| Block {
            samples,
            wall_s,
            cpu_s,
            peak_rss_mib: wall_s * 100.0,
        };
        // The middle block is typical; one ran slow, one fast.
        let r = rates(&[
            block(1000, 1.0, 2.0),
            block(1000, 4.0, 8.0),
            block(1000, 0.5, 1.0),
        ]);
        assert_eq!(r.samples_per_s, 1000.0);
        assert_eq!(r.cpu_s_per_msample, 2000.0);
        assert_eq!(r.peak_rss_mib, 100.0);
        assert_eq!((r.samples, r.wall_s, r.cpu_s), (3000, 5.5, 11.0));
    }
}
