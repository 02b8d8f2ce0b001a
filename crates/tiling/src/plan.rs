//! Tile plans: the output of every micro-tiling strategy.

use autogemm_arch::ChipSpec;
use autogemm_kernelgen::MicroTile;
use autogemm_perfmodel::micro::effective_cycles;
use autogemm_perfmodel::{projected_cycles, ModelOpts};
use serde::{Deserialize, Serialize};

/// Which strategy produced a plan (Fig 5's three panels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Fixed tile + padding (OpenBLAS-style).
    OpenBlas,
    /// Fixed interior tile + shrunken edge tiles (LIBXSMM-style).
    Libxsmm,
    /// Dynamic Micro-Tiling (autoGEMM, Algorithm 1).
    Dmt,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::OpenBlas => "OpenBLAS",
            Strategy::Libxsmm => "LIBXSMM",
            Strategy::Dmt => "DMT",
        })
    }
}

/// One micro-kernel invocation within a block: the kernel tile shape and
/// the placement of its top-left corner. `eff_rows/eff_cols` give the
/// portion that lands inside the block; anything beyond is padded work
/// (only the OpenBLAS strategy produces padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TilePlacement {
    pub row: usize,
    pub col: usize,
    /// The micro-kernel actually invoked.
    pub tile: MicroTile,
    /// Rows of the tile inside the block (`<= tile.mr`).
    pub eff_rows: usize,
    /// Columns of the tile inside the block (`<= tile.nr`).
    pub eff_cols: usize,
}

impl TilePlacement {
    pub fn full(row: usize, col: usize, tile: MicroTile) -> Self {
        TilePlacement { row, col, tile, eff_rows: tile.mr, eff_cols: tile.nr }
    }

    /// Elements of wasted (padded) work.
    pub fn padded_elems(&self) -> usize {
        self.tile.mr * self.tile.nr - self.eff_rows * self.eff_cols
    }
}

/// A complete tiling of an `m × n` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TilePlan {
    pub m: usize,
    pub n: usize,
    pub strategy: Strategy,
    pub placements: Vec<TilePlacement>,
}

impl TilePlan {
    /// Number of micro-kernel invocations.
    pub fn tile_count(&self) -> usize {
        self.placements.len()
    }

    /// Tiles whose kernel shape falls below the chip's `σ_AI` threshold
    /// (the "low arithmetic intensity" tiles of Fig 5's analysis).
    pub fn low_ai_count(&self, chip: &ChipSpec) -> usize {
        self.placements.iter().filter(|p| p.tile.ai_max() < chip.sigma_ai).count()
    }

    /// Total padded (wasted) elements across the plan.
    pub fn padded_elems(&self) -> usize {
        self.placements.iter().map(TilePlacement::padded_elems).sum()
    }

    /// Projected cycles of executing the plan at reduction depth `kc`
    /// (Eqn 13 generalized to arbitrary placements).
    pub fn projected_cycles(&self, kc: usize, chip: &ChipSpec, opts: ModelOpts) -> f64 {
        self.placements.iter().map(|p| projected_cycles(p.tile, kc, chip, opts)).sum()
    }

    /// Projected cycles including the `σ_AI` derating — the metric DMT
    /// optimizes (Algorithm 1 condition 1).
    pub fn effective_cycles(&self, kc: usize, chip: &ChipSpec, opts: ModelOpts) -> f64 {
        self.placements.iter().map(|p| effective_cycles(p.tile, kc, chip, opts)).sum()
    }

    /// Verify the plan covers every cell of the block exactly once with
    /// the non-padded portions of its tiles, and that every kernel tile is
    /// feasible for `sigma_lane`.
    pub fn validate(&self, sigma_lane: usize) -> Result<(), String> {
        let mut cover = vec![0u8; self.m * self.n];
        for p in &self.placements {
            if !p.tile.feasible(sigma_lane) {
                return Err(format!("infeasible tile {} at ({},{})", p.tile, p.row, p.col));
            }
            if p.eff_rows > p.tile.mr || p.eff_cols > p.tile.nr {
                return Err(format!("effective area exceeds tile {} dims", p.tile));
            }
            for r in p.row..p.row + p.eff_rows {
                for c in p.col..p.col + p.eff_cols {
                    if r >= self.m || c >= self.n {
                        return Err(format!(
                            "placement at ({},{}) escapes the {}x{} block",
                            p.row, p.col, self.m, self.n
                        ));
                    }
                    cover[r * self.n + c] += 1;
                }
            }
        }
        for r in 0..self.m {
            for c in 0..self.n {
                match cover[r * self.n + c] {
                    1 => {}
                    0 => return Err(format!("cell ({r},{c}) uncovered")),
                    k => return Err(format!("cell ({r},{c}) covered {k} times")),
                }
            }
        }
        Ok(())
    }

    /// Render a compact ASCII picture of the plan (rows × cols, one letter
    /// per tile) — handy for eyeballing Fig 5 reproductions.
    pub fn ascii_art(&self) -> String {
        let mut grid = vec![b'.'; self.m * self.n];
        for (idx, p) in self.placements.iter().enumerate() {
            let ch = b'A' + (idx % 26) as u8;
            for r in p.row..(p.row + p.eff_rows).min(self.m) {
                for c in p.col..(p.col + p.eff_cols).min(self.n) {
                    grid[r * self.n + c] = ch;
                }
            }
        }
        let mut out = String::with_capacity(self.m * (self.n + 1));
        for r in 0..self.m {
            for c in 0..self.n {
                out.push(grid[r * self.n + c] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// Grid a rectangular region `[row0, row0+m) × [col0, col0+n)` with `tile`,
/// shrinking edge tiles to fit (LIBXSMM-style interior helper shared by
/// strategies). Shrunken column extents are rounded up to `sigma_lane`
/// *kernel* width only when `pad_cols` is set; otherwise the kernel runs an
/// exact smaller width (which must itself be a lane multiple to be
/// feasible — callers guarantee this by construction or accept padding).
pub(crate) fn grid_region(
    row0: usize,
    col0: usize,
    m: usize,
    n: usize,
    tile: MicroTile,
    sigma_lane: usize,
    out: &mut Vec<TilePlacement>,
) {
    let mut r = 0;
    while r < m {
        let mr = tile.mr.min(m - r);
        let mut c = 0;
        while c < n {
            let nc = tile.nr.min(n - c);
            // Kernel width must be a lane multiple; shrink to the largest
            // feasible multiple and let the caller's layout guarantee that
            // n is a lane multiple overall.
            let kernel_nr = nc.div_ceil(sigma_lane) * sigma_lane;
            out.push(TilePlacement {
                row: row0 + r,
                col: col0 + c,
                tile: MicroTile::new(mr, kernel_nr),
                eff_rows: mr,
                eff_cols: nc,
            });
            c += nc;
        }
        r += mr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_exact_cover() {
        let plan = TilePlan {
            m: 8,
            n: 16,
            strategy: Strategy::Dmt,
            placements: vec![
                TilePlacement::full(0, 0, MicroTile::new(8, 8)),
                TilePlacement::full(0, 8, MicroTile::new(8, 8)),
            ],
        };
        assert!(plan.validate(4).is_ok());
        assert_eq!(plan.tile_count(), 2);
        assert_eq!(plan.padded_elems(), 0);
    }

    #[test]
    fn validate_rejects_gaps_and_overlaps() {
        let gap = TilePlan {
            m: 8,
            n: 16,
            strategy: Strategy::Dmt,
            placements: vec![TilePlacement::full(0, 0, MicroTile::new(8, 8))],
        };
        assert!(gap.validate(4).unwrap_err().contains("uncovered"));
        let overlap = TilePlan {
            m: 8,
            n: 8,
            strategy: Strategy::Dmt,
            placements: vec![
                TilePlacement::full(0, 0, MicroTile::new(8, 8)),
                TilePlacement::full(0, 0, MicroTile::new(8, 8)),
            ],
        };
        assert!(overlap.validate(4).unwrap_err().contains("covered 2 times"));
    }

    #[test]
    fn padded_elems_counts_waste() {
        let p = TilePlacement {
            row: 0,
            col: 0,
            tile: MicroTile::new(5, 16),
            eff_rows: 1,
            eff_cols: 16,
        };
        assert_eq!(p.padded_elems(), 64);
    }

    #[test]
    fn low_ai_counts_against_sigma_ai() {
        let chip = ChipSpec::kp920(); // σ_AI = 7.0
        let plan = TilePlan {
            m: 6,
            n: 16,
            strategy: Strategy::Libxsmm,
            placements: vec![
                TilePlacement::full(0, 0, MicroTile::new(5, 16)), // AI 7.62
                TilePlacement::full(5, 0, MicroTile::new(1, 16)), // AI 1.88
            ],
        };
        assert_eq!(plan.low_ai_count(&chip), 1);
    }

    #[test]
    fn grid_region_covers_ragged_blocks() {
        let mut placements = Vec::new();
        grid_region(0, 0, 26, 36, MicroTile::new(5, 16), 4, &mut placements);
        let plan = TilePlan { m: 26, n: 36, strategy: Strategy::Libxsmm, placements };
        plan.validate(4).expect("exact cover");
    }

    #[test]
    fn ascii_art_dimensions() {
        let plan = TilePlan {
            m: 2,
            n: 4,
            strategy: Strategy::Dmt,
            placements: vec![TilePlacement::full(0, 0, MicroTile::new(2, 4))],
        };
        let art = plan.ascii_art();
        assert_eq!(art.lines().count(), 2);
        assert!(art.starts_with("AAAA"));
    }
}
