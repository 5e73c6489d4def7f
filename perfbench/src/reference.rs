//! Checks of the LBM solvers' output that are computed apart from the
//! solvers: a plain D3Q19 BGK update written out here, field bounds, and
//! a recount of the halo traffic from the mesh and the owner array.
//!
//! The only things shared with the program are the storage conventions
//! the check reads through: AoS rows `f[cell * 19 + q]` and the direction
//! numbering of the velocity table below.

use hemocloud_geometry::voxel::CellType;
use hemocloud_lbm::mesh::SOLID;
use hemocloud_lbm::FluidMesh;
use hemocloud_rt::rng::Rng;
use std::collections::{BTreeSet, HashMap};

const Q: usize = 19;

/// D3Q19 velocities in the solvers' storage order.
const C: [(i32, i32, i32); Q] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, -1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 0, 1),
    (-1, 0, -1),
    (1, 0, -1),
    (-1, 0, 1),
    (0, 1, 1),
    (0, -1, -1),
    (0, 1, -1),
    (0, -1, 1),
];

/// Largest |reference − solver| accepted on any sampled value. The
/// solver sums moments in a fixed tree order and the reference left to
/// right, so the two differ by a few ulps of O(1) sums; 1e-12 is about
/// 4500 ulps at 1.0 and far below any real error in a population.
pub const TOLERANCE: f64 = 1e-12;

fn weight(q: usize) -> f64 {
    let (x, y, z) = C[q];
    match x * x + y * y + z * z {
        0 => 1.0 / 3.0,
        1 => 1.0 / 18.0,
        _ => 1.0 / 36.0,
    }
}

fn opposite(q: usize) -> usize {
    let (x, y, z) = C[q];
    C.iter()
        .position(|&c| c == (-x, -y, -z))
        .expect("D3Q19 is symmetric")
}

/// Density and velocity of one row, summed left to right.
fn moments(row: &[f64; Q]) -> (f64, [f64; 3]) {
    let mut rho = 0.0;
    let mut j = [0.0; 3];
    for (q, &f) in row.iter().enumerate() {
        let (x, y, z) = C[q];
        rho += f;
        j[0] += x as f64 * f;
        j[1] += y as f64 * f;
        j[2] += z as f64 * f;
    }
    (rho, [j[0] / rho, j[1] / rho, j[2] / rho])
}

/// Where each pulled population of a sampled cell comes from.
#[derive(Clone, Copy)]
enum Source {
    /// The upstream fluid cell `cell - c_q`.
    Fluid(usize),
    /// No fluid upstream: halfway bounce-back of the cell's own opposite
    /// population.
    Bounce,
}

/// A seeded sample of bulk and wall cells with their upstream cells,
/// found from grid coordinates (not from the solver's neighbour table).
pub struct Sample {
    cells: Vec<usize>,
    sources: Vec<[Source; Q]>,
}

impl Sample {
    pub fn draw(mesh: &FluidMesh, rng: &mut Rng, size: usize) -> Self {
        let n = mesh.len();
        let mut chosen = BTreeSet::new();
        let mut tries = 0;
        while chosen.len() < size.min(n) && tries < 100 * size {
            tries += 1;
            let c = rng.range_usize(0, n);
            if matches!(mesh.cell_type(c), CellType::Bulk | CellType::Wall) {
                chosen.insert(c);
            }
        }
        let cells: Vec<usize> = chosen.into_iter().collect();
        let (nx, ny, nz) = mesh.dims();
        let linear = |x: i64, y: i64, z: i64| -> Option<usize> {
            let inside = (0..nx as i64).contains(&x)
                && (0..ny as i64).contains(&y)
                && (0..nz as i64).contains(&z);
            inside.then(|| (x + nx as i64 * (y + ny as i64 * z)) as usize)
        };
        let upstream = |cell: usize, q: usize| {
            let (x, y, z) = mesh.coords(cell);
            let (cx, cy, cz) = C[q];
            linear(
                x as i64 - cx as i64,
                y as i64 - cy as i64,
                z as i64 - cz as i64,
            )
        };
        let mut wanted: HashMap<usize, usize> = HashMap::new();
        for &c in &cells {
            for q in 0..Q {
                if let Some(g) = upstream(c, q) {
                    wanted.insert(g, usize::MAX);
                }
            }
        }
        for c in 0..n {
            let (x, y, z) = mesh.coords(c);
            let g = x + nx * (y + ny * z);
            if let Some(slot) = wanted.get_mut(&g) {
                *slot = c;
            }
        }
        let sources = cells
            .iter()
            .map(|&c| {
                std::array::from_fn(|q| match upstream(c, q).map(|g| wanted[&g]) {
                    Some(u) if u != usize::MAX => Source::Fluid(u),
                    _ => Source::Bounce,
                })
            })
            .collect();
        Self { cells, sources }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// The rows one BGK step (relaxation rate `omega`) makes from `f`.
    pub fn expected_rows(&self, f: &[f64], omega: f64) -> Vec<[f64; Q]> {
        self.cells
            .iter()
            .zip(&self.sources)
            .map(|(&c, src)| {
                let fin: [f64; Q] = std::array::from_fn(|q| match src[q] {
                    Source::Fluid(u) => f[u * Q + q],
                    Source::Bounce => f[c * Q + opposite(q)],
                });
                let (rho, u) = moments(&fin);
                let usq = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
                std::array::from_fn(|q| {
                    let (x, y, z) = C[q];
                    let cu = x as f64 * u[0] + y as f64 * u[1] + z as f64 * u[2];
                    let feq = weight(q) * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq);
                    fin[q] - omega * (fin[q] - feq)
                })
            })
            .collect()
    }

    /// The sampled cells' rows as stored in `f`.
    pub fn read_rows(&self, f: &[f64]) -> Vec<[f64; Q]> {
        self.cells
            .iter()
            .map(|&c| std::array::from_fn(|q| f[c * Q + q]))
            .collect()
    }
}

pub fn max_abs_diff(a: &[[f64; Q]], b: &[[f64; Q]]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
        .fold(0.0, |m, d| if d.is_nan() || d > m { d } else { m })
}

/// Field census of an AoS distribution array. Density is bounded on
/// interior (bulk and wall) cells only: inlet and outlet cells hold what
/// their boundary condition imposes, and their lowest density is kept
/// apart for the report.
pub struct FieldStats {
    pub nonfinite: usize,
    pub rho_min: f64,
    pub rho_max: f64,
    pub speed_max: f64,
    /// Interior cell of the density furthest from 1.
    pub worst_cell: usize,
    pub boundary_rho_min: f64,
}

pub fn field_stats(f: &[f64], mesh: &FluidMesh) -> FieldStats {
    let mut s = FieldStats {
        nonfinite: 0,
        rho_min: f64::INFINITY,
        rho_max: f64::NEG_INFINITY,
        speed_max: 0.0,
        worst_cell: 0,
        boundary_rho_min: f64::INFINITY,
    };
    let mut worst = 0.0;
    for (cell, chunk) in f.chunks_exact(Q).enumerate() {
        let row: &[f64; Q] = chunk.try_into().expect("exact chunk");
        s.nonfinite += row.iter().filter(|v| !v.is_finite()).count();
        let (rho, u) = moments(row);
        s.speed_max = s
            .speed_max
            .max((u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt());
        if !matches!(mesh.cell_type(cell), CellType::Bulk | CellType::Wall) {
            s.boundary_rho_min = s.boundary_rho_min.min(rho);
            continue;
        }
        if (rho - 1.0).abs() > worst {
            worst = (rho - 1.0).abs();
            s.worst_cell = cell;
        }
        s.rho_min = s.rho_min.min(rho);
        s.rho_max = s.rho_max.max(rho);
    }
    s
}

/// Per-step halo traffic of each sending rank, recounted from the mesh
/// neighbour table and the owner array: every fluid cell that a pull
/// update on another rank reads is shipped whole (19 f64) once per
/// receiving rank, and each (sender, receiver) pair is one message.
pub fn halo_recount(mesh: &FluidMesh, owner: &[u32], n_ranks: usize) -> (Vec<u64>, Vec<u64>) {
    let mut shipped: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    for cell in 0..mesh.len() {
        let me = owner[cell];
        for q in 0..Q {
            let nb = mesh.neighbor(cell, q);
            if nb != SOLID && owner[nb as usize] != me {
                shipped.insert((owner[nb as usize], me, nb));
            }
        }
    }
    let mut bytes = vec![0u64; n_ranks];
    let mut messages = vec![0u64; n_ranks];
    let mut last_pair = None;
    for (sender, receiver, _) in shipped {
        bytes[sender as usize] += (Q * std::mem::size_of::<f64>()) as u64;
        if last_pair != Some((sender, receiver)) {
            messages[sender as usize] += 1;
            last_pair = Some((sender, receiver));
        }
    }
    (bytes, messages)
}
